package instrument

import (
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// fill sets the i-th field of a Counters to base+i·step by reflection, which
// is independent of the field table the code under test loops over.
func fill(base, step uint64) *Counters {
	c := &Counters{}
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(base + uint64(i)*step)
	}
	return c
}

// values reads c back through the table, in declaration order.
func values(c *Counters) []uint64 {
	var out []uint64
	for _, v := range c.All() {
		out = append(out, v)
	}
	return out
}

// TestCounterRegistry checks the tags every exporter derives its series
// from: each Counters field is a uint64 with a unique snake_case json name
// and a help text, and All yields them in declaration order.
func TestCounterRegistry(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	rt := reflect.TypeOf(Counters{})
	var table []Field
	for f := range fill(0, 1).All() {
		table = append(table, f)
	}
	if rt.NumField() != numCounters || len(table) != numCounters {
		t.Fatalf("Counters has %d fields, numCounters = %d, All yields %d",
			rt.NumField(), numCounters, len(table))
	}
	seen := map[string]string{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, help := f.Tag.Get("json"), f.Tag.Get("help")
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("Counters.%s is %v, want uint64", f.Name, f.Type)
		}
		if !snake.MatchString(name) {
			t.Errorf("Counters.%s json name %q is not snake_case", f.Name, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("Counters.%s and Counters.%s share the json name %q", prev, f.Name, name)
		}
		seen[name] = f.Name
		if help == "" {
			t.Errorf("Counters.%s has no help tag", f.Name)
		}
		if table[i] != (Field{Name: name, Help: help}) {
			t.Errorf("All yields %+v at %d, want the tags of Counters.%s", table[i], i, f.Name)
		}
	}
}

func TestAddAccumulatesEveryField(t *testing.T) {
	a := fill(100, 1)
	a.Add(fill(1000, 1))
	if got, want := values(a), values(fill(1100, 2)); !slices.Equal(got, want) {
		t.Fatalf("Add missed a field:\ngot  %v\nwant %v", got, want)
	}
}

func TestAtomicCountersRoundTrip(t *testing.T) {
	c := fill(7, 13)
	var a AtomicCounters
	a.Store(c)
	got := a.Load()
	if !slices.Equal(values(&got), values(c)) {
		t.Fatalf("round trip lost fields:\ngot  %v\nwant %v", values(&got), values(c))
	}
}

func TestOps(t *testing.T) {
	c := Counters{Enqueues: 3, Dequeues: 5}
	if c.Ops() != 8 {
		t.Fatalf("Ops = %d, want 8", c.Ops())
	}
}

func TestAtomicsPerOp(t *testing.T) {
	c := Counters{Enqueues: 5, Dequeues: 5, FAA: 10, CAS2: 10, CAS: 5, SWAP: 3, TAS: 2}
	if got := c.AtomicsPerOp(); got != 3.0 {
		t.Fatalf("AtomicsPerOp = %v, want 3.0", got)
	}
}

func TestZeroOpsNoDivideByZero(t *testing.T) {
	var c Counters
	if c.AtomicsPerOp() != 0 || c.CASFailuresPerOp() != 0 {
		t.Fatal("expected 0 for empty counters")
	}
}

func TestCASFailuresPerOp(t *testing.T) {
	c := Counters{Enqueues: 2, Dequeues: 2, CASFail: 3, CAS2Fail: 1}
	if got := c.CASFailuresPerOp(); got != 1.0 {
		t.Fatalf("CASFailuresPerOp = %v, want 1.0", got)
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b Counters) bool {
		x, y := a, b
		x.Add(&b)
		y.Add(&a)
		// y started as b and accumulated a; compare to x (a accumulated b).
		return slices.Equal(values(&x), values(&y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringIncludesCombinerStats(t *testing.T) {
	c := Counters{Enqueues: 1, CombinerRuns: 2, Combined: 10}
	s := c.String()
	if !strings.Contains(s, "avg-batch=5.0") {
		t.Fatalf("String() = %q, want combiner batch stats", s)
	}
	var zero Counters
	if strings.Contains(zero.String(), "combiner") {
		t.Fatal("zero counters should omit combiner stats")
	}
}
