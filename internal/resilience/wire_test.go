package resilience

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// wireSeeds are bodies from the server and client tests, plus the inputs
// where encoding/json's behaviour is easiest to get wrong.
var wireSeeds = []string{
	// Bodies the tests and the client send and receive.
	`{"values":[1,2,3]}`,
	`{"values":[99],"trace_id":"0xdeadbeef"}`,
	`{"values":[1,2],"timeout_ms":30000,"idempotency_key":"p-17"}`,
	`{"max":10}`,
	`{"max":16,"wait_ms":50}`,
	`{}`,
	`{nope`,
	`{"accepted":3}` + "\n",
	`{"accepted":1,"trace_id":"0xdeadbeef"}` + "\n",
	`{"values":[]}` + "\n",
	`{"values":[5,6],"traces":[{"id":"0x2a","pos":1,"enqueued_at_unix_ns":1700000000000000000,"sojourn_ns":1234}]}` + "\n",
	`{"error":"full","detail":"queue full for the whole deadline","retry_after_sec":1}` + "\n",
	// Key matching: case folding (U+212A is the Kelvin sign, U+017F the
	// long s), escaped keys, unknown keys of every shape, duplicates.
	`{"VALUES":[1],"Timeout_MS":5,"IDEMPOTENCY_KEY":"k","Trace_Id":"7"}`,
	"{\"value\u017f\":[1],\"idempotency_\u212aey\":\"k\",\"MAX\":2,\"ACCEPTED\":4}",
	`{"values":[4],"max":3,"traces":[{"id":"x"}]}`,
	`{"extra":{"a":[1,{"b":null}],"c":"d"},"values":[1],"more":[true,false,null,-1.5e+3]}`,
	`{"values":[1,2,3],"values":[4],"values":[null,null,null,null]}`,
	`{"values":[1,2],"values":null,"values":[null]}`,
	`{"values":[1,2],"values":[],"values":[null,null]}`,
	`{"traces":[{"id":"a","pos":1}],"traces":[{"pos":2},null]}`,
	`{"trace_id":"a","trace_id":null,"max":1,"max":null}`,
	`null`, `nullx`, ` {"max":1} trailing`, `{"max":1}}`, `[1]`, `"s"`, `5`, `true`, ``, `   `,
	// Strings: escapes, surrogates, control bytes, invalid UTF-8.
	`{"idempotency_key":"a\"b\\c\/d\be\ff\ng\rh\ti<>&` + "\u00e9\u2028\u2029" + `"}`,
	`{"trace_id":"` + "\U0001F600" + ` \ud83d \ude00 \ud83dA \ud83d\ude00 ` + "\U0010FFFF" + `"}`,
	"{\"idempotency_key\":\"\xff\xfe ok \xe2\x82\"}",
	"{\"trace_id\":\"tab\there\"}",
	`{"trace_id":"\x"}`, `{"trace_id":"\u12"}`, `{"trace_id":"\'"}`,
	// Integers: sign, fraction, exponent, leading zeros, overflow.
	`{"values":[0,18446744073709551615]}`,
	`{"values":[18446744073709551616]}`,
	`{"values":[-0]}`, `{"values":[1.0]}`, `{"values":[1e2]}`, `{"values":[01]}`,
	`{"timeout_ms":-9223372036854775808,"max":-0}`,
	`{"timeout_ms":9223372036854775808}`,
	`{"max":-}`, `{"max":1.}`, `{"max":1e}`, `{"max":"1"}`, `{"max":[1]}`, `{"max":true}`,
	`{"values":"1"}`, `{"values":{}}`, `{"values":[[1]]}`, `{"values":[1,]}`, `{"values":[,1]}`,
	`{"max":1,}`, `{,"max":1}`, `{"max" 1}`, `{max:1}`,
}

// FuzzWireCodec holds the hand-written codec to encoding/json: for each of
// the four hot types, the decoder must give the reference's verdict, error
// and value on every input, and the encoder the reference's bytes for
// every value. The references are what the codec replaced: a
// json.Decoder for request bodies (the server), json.Unmarshal for
// response bodies (the client), json.Marshal for request bodies and
// json.Marshal plus a newline (json.Encoder) for response bodies.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkWireCodec)
}

// TestWireCodecDepth checks nesting at and past encoding/json's depth
// limit, under an unknown key. It is not in the fuzz corpus because inputs
// this large slow the fuzzer down.
func TestWireCodecDepth(t *testing.T) {
	for _, n := range []int{9999, 10000} {
		checkWireCodec(t, []byte(`{"x":`+strings.Repeat("[", n)+strings.Repeat("]", n)+`}`))
	}
}

// checkWireCodec checks the codec against encoding/json on input b.
func checkWireCodec(t *testing.T, b []byte) {
	decoder := func(v any) error { return json.NewDecoder(bytes.NewReader(b)).Decode(v) }
	unmarshal := func(v any) error { return json.Unmarshal(b, v) }

	// The decoders are handed dirty buffers to reuse, as the server's
	// pooled ones are.
	var eq EnqueueRequest
	eq.Values = dirty[uint64](9)
	checkDecode(t, b, "EnqueueRequest", decoder, DecodeEnqueueRequest(b, &eq), eq)
	var dq DequeueRequest
	checkDecode(t, b, "DequeueRequest", decoder, DecodeDequeueRequest(b, &dq), dq)
	var er EnqueueResponse
	checkDecode(t, b, "EnqueueResponse", unmarshal, DecodeEnqueueResponse(b, &er), er)
	var dr DequeueResponse
	dr.Values, dr.Traces = dirty[uint64](9), dirty[WireTrace](3)
	checkDecode(t, b, "DequeueResponse", unmarshal, DecodeDequeueResponse(b, &dr), dr)

	// Encode what was decoded, and values made from the raw input so
	// that strings carry invalid UTF-8 and integers their extremes.
	s := string(b)
	n := int64(len(b))
	if len(b) >= 8 {
		n = int64(binary.LittleEndian.Uint64(b))
	}
	vals := []uint64{uint64(n), 0, uint64(len(b))}
	for _, v := range []EnqueueRequest{eq, {Values: vals, TimeoutMs: n, IdempotencyKey: s, TraceID: s}} {
		checkEncode(t, AppendEnqueueRequest(nil, v), v, "")
	}
	for _, v := range []DequeueRequest{dq, {Max: int(n), WaitMs: -n}} {
		checkEncode(t, AppendDequeueRequest(nil, v), v, "")
	}
	for _, v := range []EnqueueResponse{er, {Accepted: int(n), TraceID: s}} {
		checkEncode(t, AppendEnqueueResponse(nil, v), v, "\n")
	}
	traces := []WireTrace{{ID: s, Pos: int(n), EnqueuedAtUnixNs: n, SojournNs: -n}, {}}
	for _, v := range []DequeueResponse{dr, {Values: vals, Traces: traces}} {
		checkEncode(t, AppendDequeueResponse(nil, v), v, "\n")
	}
}

// dirty returns an empty slice whose spare capacity holds non-zero
// elements, which a decoder must not let show through.
func dirty[T any](n int) []T {
	s := make([]T, n)
	for i := range s {
		v := reflect.ValueOf(&s[i]).Elem()
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(0x5a5a5a5a5a5a5a5a)
		case reflect.Struct:
			v.Field(0).SetString("stale")
			v.Field(1).SetInt(0x5a)
		}
	}
	return s[:0]
}

// checkDecode compares a codec decode (err, got) of b with the reference
// decode of b into a zero value of got's type.
func checkDecode[T any](t *testing.T, b []byte, name string, ref func(any) error, err error, got T) {
	t.Helper()
	var want T
	wantErr := ref(&want)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s %q: codec error %v, encoding/json error %v", name, b, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s %q: codec error %q, encoding/json error %q", name, b, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s %q: codec decoded %#v, encoding/json %#v", name, b, got, want)
	}
}

// checkEncode compares a codec encoding of v with json.Marshal's plus
// suffix.
func checkEncode(t *testing.T, got []byte, v any, suffix string) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, suffix...); !bytes.Equal(got, want) {
		t.Fatalf("%T %#v: codec encoded %q, encoding/json %q", v, v, got, want)
	}
}

// TestWireCodecAllocs pins the hot path's allocations: decoding into a
// warm buffer allocates only the strings it returns, and encoding into
// one allocates nothing.
func TestWireCodecAllocs(t *testing.T) {
	body := AppendEnqueueRequest(nil, EnqueueRequest{Values: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, IdempotencyKey: "p-12345"})
	req := EnqueueRequest{Values: make([]uint64, 0, 16)}
	dqBody := []byte(`{"max":16,"wait_ms":50}`)
	buf := make([]byte, 0, 512)
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"DecodeEnqueueRequest", 1, func() {
			if err := DecodeEnqueueRequest(body, &req); err != nil || len(req.Values) != 16 {
				t.Fatal(err, req)
			}
		}},
		{"DecodeDequeueRequest", 0, func() {
			var r DequeueRequest
			if err := DecodeDequeueRequest(dqBody, &r); err != nil || r.Max != 16 {
				t.Fatal(err, r)
			}
		}},
		{"AppendEnqueueRequest", 0, func() { buf = AppendEnqueueRequest(buf[:0], req) }},
		{"AppendDequeueResponse", 0, func() { buf = AppendDequeueResponse(buf[:0], DequeueResponse{Values: req.Values}) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %v allocations per run, want %v", c.name, got, c.want)
		}
	}
}
