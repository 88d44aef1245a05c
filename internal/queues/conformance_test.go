package queues

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"lcrq/internal/linearize"
	"lcrq/internal/xrand"
)

func testConfig() Config {
	return Config{RingOrder: 4, Clusters: 2, Threads: 8}
}

// TestRegistryComplete pins the set of queue names the harness and docs
// rely on.
func TestRegistryComplete(t *testing.T) {
	want := []string{"cc-queue", "channel", "fc-queue", "h-queue", "kp-queue",
		"lcrq", "lcrq+h", "lcrq-cas", "ms-queue", "scq", "sim-queue",
		"twolock"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestUnknownQueue(t *testing.T) {
	if _, err := New("no-such-queue", Config{}); err == nil {
		t.Fatal("expected error for unknown queue")
	}
}

func TestNameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		q, err := New(name, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if q.Name() != name {
			t.Fatalf("queue %q reports name %q", name, q.Name())
		}
	}
}

// TestSequentialConformance runs the model-equivalence property on every
// registered implementation.
func TestSequentialConformance(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []byte) bool {
				q, err := New(name, testConfig())
				if err != nil {
					t.Fatal(err)
				}
				h := q.NewHandle(0, 0)
				defer h.Release()
				var model []uint64
				next := uint64(1)
				for _, op := range ops {
					if op%2 == 0 {
						h.Enqueue(next)
						model = append(model, next)
						next++
					} else {
						v, ok := h.Dequeue()
						if len(model) == 0 {
							if ok {
								return false
							}
						} else if !ok || v != model[0] {
							return false
						} else {
							model = model[1:]
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentConformance checks no-loss/no-dup and per-producer FIFO for
// every implementation under concurrent load.
func TestConcurrentConformance(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			const producers, consumers, per = 4, 4, 2000
			var wg sync.WaitGroup
			var count atomic.Int64
			seen := make([][]uint64, consumers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					h := q.NewHandle(p, p%2)
					defer h.Release()
					for i := 0; i < per; i++ {
						h.Enqueue(uint64(p)<<32 | uint64(i) | 1<<62)
					}
				}(p)
			}
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					h := q.NewHandle(producers+c, c%2)
					defer h.Release()
					for count.Load() < producers*per {
						if v, ok := h.Dequeue(); ok {
							seen[c] = append(seen[c], v)
							count.Add(1)
						}
					}
				}(c)
			}
			wg.Wait()
			all := map[uint64]int{}
			for _, s := range seen {
				for _, v := range s {
					all[v]++
				}
			}
			if len(all) != producers*per {
				t.Fatalf("distinct = %d, want %d", len(all), producers*per)
			}
			for v, n := range all {
				if n != 1 {
					t.Fatalf("value %#x seen %d times", v, n)
				}
			}
			for c, s := range seen {
				last := map[uint64]int64{}
				for _, v := range s {
					p, i := v>>32, int64(v&0xffffffff)
					if prev, ok := last[p]; ok && i <= prev {
						t.Fatalf("consumer %d: producer %d out of order", c, p)
					}
					last[p] = i
				}
			}
		})
	}
}

// TestLinearizability records genuine concurrent histories on every
// implementation and verifies them with the exhaustive checker. Histories
// are kept small so the check is fast; many rounds with different seeds
// cover varied interleavings.
func TestLinearizability(t *testing.T) {
	const (
		threads  = 3
		opsEach  = 8
		rounds   = 30
		maxValue = 1 << 30
	)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				q, err := New(name, Config{RingOrder: 2, Clusters: 2, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				rec := linearize.NewRecorder(threads)
				var wg sync.WaitGroup
				var nextVal atomic.Uint64
				for th := 0; th < threads; th++ {
					wg.Add(1)
					go func(th int) {
						defer wg.Done()
						h := q.NewHandle(th, th%2)
						defer h.Release()
						rng := xrand.New(uint64(round*threads + th + 1))
						for i := 0; i < opsEach; i++ {
							if rng.Uintn(2) == 0 {
								v := nextVal.Add(1) % maxValue
								inv := rec.Now()
								h.Enqueue(v)
								ret := rec.Now()
								rec.Append(th, linearize.Op{
									Kind: linearize.Enq, Value: v,
									Invoke: inv, Return: ret,
								})
							} else {
								inv := rec.Now()
								v, ok := h.Dequeue()
								ret := rec.Now()
								rec.Append(th, linearize.Op{
									Kind: linearize.Deq, Value: v, OK: ok,
									Invoke: inv, Return: ret,
								})
							}
						}
					}(th)
				}
				wg.Wait()
				hist := rec.History()
				if !linearize.Check(hist) {
					for _, op := range hist {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: history not linearizable", round)
				}
			}
		})
	}
}

// TestHandleChurn acquires and releases handles concurrently while
// operating, exercising reclamation-record reuse (the hazard domain
// recycles released records across threads).
func TestHandleChurn(t *testing.T) {
	for _, name := range []string{"lcrq", "lcrq+h", "scq", "fc-queue"} {
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			var produced, consumed atomic.Int64
			var wg sync.WaitGroup
			const workers, rounds, perRound = 6, 30, 40
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						h := q.NewHandle(w, w%2) // fresh handle every round
						for i := 0; i < perRound; i++ {
							h.Enqueue(uint64(w)<<32 | uint64(r*perRound+i))
							produced.Add(1)
							if _, ok := h.Dequeue(); ok {
								consumed.Add(1)
							}
						}
						h.Release()
					}
				}(w)
			}
			wg.Wait()
			// Drain what remains; totals must balance.
			h := q.NewHandle(0, 0)
			defer h.Release()
			for {
				if _, ok := h.Dequeue(); !ok {
					break
				}
				consumed.Add(1)
			}
			if produced.Load() != consumed.Load() {
				t.Fatalf("produced %d, consumed %d", produced.Load(), consumed.Load())
			}
		})
	}
}

// TestCountersPopulated ensures every adapter wires its counters through.
func TestCountersPopulated(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			q, err := New(name, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			h := q.NewHandle(0, 0)
			defer h.Release()
			for i := uint64(1); i <= 10; i++ {
				h.Enqueue(i)
			}
			for i := 0; i < 11; i++ {
				h.Dequeue()
			}
			c := h.Counters()
			if c.Enqueues != 10 {
				t.Fatalf("Enqueues = %d", c.Enqueues)
			}
			if c.Dequeues != 11 {
				t.Fatalf("Dequeues = %d", c.Dequeues)
			}
			if c.Empty != 1 {
				t.Fatalf("Empty = %d", c.Empty)
			}
		})
	}
}
