package resilience

// Wire types of the qserve HTTP/JSON protocol, shared by the server
// (internal/resilience/server), the client library
// (internal/resilience/client), and the e2e driver (cmd/qload).
//
// Values are uint64, carried as JSON numbers: exact through Go's
// encoder/decoder at any magnitude, but JavaScript consumers lose precision
// past 2^53 — keep wire values below that if a JS client is in the loop.
// Trace identities, which routinely use all 64 bits, are carried as strings
// for the same reason.
//
// The four hot types — EnqueueRequest, EnqueueResponse, DequeueRequest and
// DequeueResponse — have a hand-written codec at the end of this file, used
// by the server's /v1/enqueue and /v1/dequeue paths and by the client. Its
// contract is equivalence with encoding/json: the encoders write the bytes
// json.Marshal writes (plus the newline json.Encoder adds, for responses),
// and the decoders accept and reject exactly the inputs encoding/json does
// and fill in the same values. FuzzWireCodec holds the two side by side.
// Everything else on the wire (error bodies, /healthz, /statsz, /traces)
// stays on encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// EnqueueRequest asks the server to append Values in order.
type EnqueueRequest struct {
	// Values to enqueue, in order. Must be non-empty and at most the
	// server's max batch size; lcrq.Reserved is rejected.
	Values []uint64 `json:"values"`
	// TimeoutMs > 0 lets the server wait up to this long for a bounded
	// queue to free budget before giving up (capped by the server's
	// deadline ceiling). 0 means try once and report full immediately.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey, when set, makes retries of this exact batch safe: a
	// replay of a key the server already executed returns the recorded
	// outcome instead of enqueueing again.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// TraceID, when set, forces an item trace with this identity onto the
	// first value the server accepts: the dequeue that later claims that
	// value reports the identity and the measured ring sojourn in
	// DequeueResponse.Traces, and the server retains it for /traces lookup.
	// Encoded as a string ("0x..." hex or decimal) because 64-bit JSON
	// numbers lose precision in JavaScript. Resends under one idempotency
	// key keep the same TraceID, so a replayed accept stays one trace.
	TraceID string `json:"trace_id,omitempty"`
}

// EnqueueResponse reports how many leading values were accepted. Accepted
// may be less than len(Values) when budget or the deadline ran out —
// Values[Accepted:] are NOT in the queue and may be resent.
type EnqueueResponse struct {
	Accepted int `json:"accepted"`
	// TraceID echoes the request's trace identity when one was supplied
	// and at least one value was accepted (i.e. the stamp was deposited).
	TraceID string `json:"trace_id,omitempty"`
}

// DequeueRequest asks for up to Max values.
type DequeueRequest struct {
	// Max values to return; 0 means 1; capped by the server's max batch.
	Max int `json:"max,omitempty"`
	// WaitMs > 0 long-polls: an empty queue is waited on up to this long
	// (capped by the server's deadline ceiling) before answering. 0
	// answers immediately, with an empty Values when the queue is empty.
	WaitMs int64 `json:"wait_ms,omitempty"`
}

// DequeueResponse carries the dequeued values, oldest first; empty when
// the queue had nothing within the wait.
type DequeueResponse struct {
	Values []uint64 `json:"values"`
	// Traces reports the stamped items among Values — sampled by the
	// queue's own 1-in-N tracing or forced by an enqueuer's trace_id.
	// Usually empty; at most one per stamped item.
	Traces []WireTrace `json:"traces,omitempty"`
}

// WireTrace is one completed item trace riding on a dequeue response: the
// queue-residency span of the cross-layer trace decomposition.
type WireTrace struct {
	// ID is the trace identity, formatted as in EnqueueRequest.TraceID.
	ID string `json:"id"`
	// Pos indexes the stamped item within DequeueResponse.Values.
	Pos int `json:"pos"`
	// EnqueuedAtUnixNs is the server-clock time the item was deposited.
	EnqueuedAtUnixNs int64 `json:"enqueued_at_unix_ns"`
	// SojournNs is how long the item sat in the ring before this dequeue
	// claimed it.
	SojournNs int64 `json:"sojourn_ns"`
}

// FormatTraceID renders a trace identity the way the wire carries it.
func FormatTraceID(id uint64) string { return "0x" + strconv.FormatUint(id, 16) }

// ParseTraceID parses a wire trace identity ("0x..." hex or decimal).
func ParseTraceID(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	// Error is a stable token: "shedding", "full", "draining", "closed",
	// "deadline", "canceled", or "bad-request".
	Error string `json:"error"`
	// Detail elaborates for humans; not stable.
	Detail string `json:"detail,omitempty"`
	// RetryAfterSec mirrors the Retry-After header on 429 answers.
	RetryAfterSec int64 `json:"retry_after_sec,omitempty"`
}

// Error tokens; the HTTP status codes they ride on are fixed by the
// protocol (DESIGN.md §12): 429 shedding/full, 503 draining/closed,
// 504 deadline, 400 bad-request, 499 canceled.
const (
	ErrTokenShedding   = "shedding"
	ErrTokenFull       = "full"
	ErrTokenDraining   = "draining"
	ErrTokenClosed     = "closed"
	ErrTokenDeadline   = "deadline"
	ErrTokenCanceled   = "canceled"
	ErrTokenBadRequest = "bad-request"
)

// StatusClientClosedRequest is the nginx-convention status for "the client
// went away before the answer existed" (there is no standard code; 499 is
// the de-facto one). Nothing was delivered to anyone.
const StatusClientClosedRequest = 499

// AppendEnqueueRequest appends r as json.Marshal encodes it.
func AppendEnqueueRequest(dst []byte, r EnqueueRequest) []byte {
	dst = append(dst, `{"values":`...)
	dst = appendValues(dst, r.Values)
	if r.TimeoutMs != 0 {
		dst = append(dst, `,"timeout_ms":`...)
		dst = strconv.AppendInt(dst, r.TimeoutMs, 10)
	}
	if r.IdempotencyKey != "" {
		dst = append(dst, `,"idempotency_key":`...)
		dst = appendString(dst, r.IdempotencyKey)
	}
	if r.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = appendString(dst, r.TraceID)
	}
	return append(dst, '}')
}

// AppendDequeueRequest appends r as json.Marshal encodes it.
func AppendDequeueRequest(dst []byte, r DequeueRequest) []byte {
	dst = append(dst, '{')
	if r.Max != 0 {
		dst = append(dst, `"max":`...)
		dst = strconv.AppendInt(dst, int64(r.Max), 10)
	}
	if r.WaitMs != 0 {
		if r.Max != 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"wait_ms":`...)
		dst = strconv.AppendInt(dst, r.WaitMs, 10)
	}
	return append(dst, '}')
}

// AppendEnqueueResponse appends r as a json.Encoder writes it: the
// json.Marshal bytes and a newline.
func AppendEnqueueResponse(dst []byte, r EnqueueResponse) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(r.Accepted), 10)
	if r.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = appendString(dst, r.TraceID)
	}
	return append(dst, "}\n"...)
}

// AppendDequeueResponse appends r as a json.Encoder writes it: the
// json.Marshal bytes and a newline.
func AppendDequeueResponse(dst []byte, r DequeueResponse) []byte {
	dst = append(dst, `{"values":`...)
	dst = appendValues(dst, r.Values)
	if len(r.Traces) > 0 {
		dst = append(dst, `,"traces":[`...)
		for i, t := range r.Traces {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = appendString(dst, t.ID)
			dst = append(dst, `,"pos":`...)
			dst = strconv.AppendInt(dst, int64(t.Pos), 10)
			dst = append(dst, `,"enqueued_at_unix_ns":`...)
			dst = strconv.AppendInt(dst, t.EnqueuedAtUnixNs, 10)
			dst = append(dst, `,"sojourn_ns":`...)
			dst = strconv.AppendInt(dst, t.SojournNs, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

func appendValues(dst []byte, vs []uint64) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string the way encoding/json writes one
// with HTML escaping on (its default): <, > and & as \u00XX, U+2028 and
// U+2029 escaped, and each byte of invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeEnqueueRequest decodes the request body b into r as
// json.NewDecoder(bytes.NewReader(b)).Decode decodes it into a zero
// EnqueueRequest: the first JSON value is decoded and whatever follows it
// is ignored. The capacity r.Values has on entry is reused for the values.
// A rejected body gets the error encoding/json reports for it.
func DecodeEnqueueRequest(b []byte, r *EnqueueRequest) error {
	p := parser{b: b}
	vals := sliceDecoder[uint64]{buf: r.Values[:0]}
	*r = EnqueueRequest{}
	if p.open('{') {
		for first := true; p.more('}', &first); {
			switch p.key(enqueueRequestKeys) {
			case 0:
				p.values(&vals, &r.Values)
			case 1:
				p.int64(&r.TimeoutMs, 64)
			case 2:
				p.string(&r.IdempotencyKey)
			case 3:
				p.string(&r.TraceID)
			default:
				p.skip()
			}
		}
	}
	if !p.bad {
		return nil
	}
	return rejected(json.NewDecoder(bytes.NewReader(b)).Decode(new(EnqueueRequest)))
}

// DecodeDequeueRequest decodes the request body b into r as
// json.NewDecoder(bytes.NewReader(b)).Decode decodes it into a zero
// DequeueRequest; see DecodeEnqueueRequest.
func DecodeDequeueRequest(b []byte, r *DequeueRequest) error {
	p := parser{b: b}
	*r = DequeueRequest{}
	if p.open('{') {
		for first := true; p.more('}', &first); {
			switch p.key(dequeueRequestKeys) {
			case 0:
				p.int(&r.Max)
			case 1:
				p.int64(&r.WaitMs, 64)
			default:
				p.skip()
			}
		}
	}
	if !p.bad {
		return nil
	}
	return rejected(json.NewDecoder(bytes.NewReader(b)).Decode(new(DequeueRequest)))
}

// DecodeEnqueueResponse decodes the response body b into r as
// json.Unmarshal decodes it into a zero EnqueueResponse: b must hold one
// JSON value and nothing but whitespace after it. A rejected body gets the
// error encoding/json reports for it.
func DecodeEnqueueResponse(b []byte, r *EnqueueResponse) error {
	p := parser{b: b}
	*r = EnqueueResponse{}
	if p.open('{') {
		for first := true; p.more('}', &first); {
			switch p.key(enqueueResponseKeys) {
			case 0:
				p.int(&r.Accepted)
			case 1:
				p.string(&r.TraceID)
			default:
				p.skip()
			}
		}
	}
	if p.end() {
		return nil
	}
	return rejected(json.Unmarshal(b, new(EnqueueResponse)))
}

// DecodeDequeueResponse decodes the response body b into r as
// json.Unmarshal decodes it into a zero DequeueResponse; see
// DecodeEnqueueResponse. The capacity r.Values and r.Traces have on entry
// is reused.
func DecodeDequeueResponse(b []byte, r *DequeueResponse) error {
	p := parser{b: b}
	vals := sliceDecoder[uint64]{buf: r.Values[:0]}
	traces := sliceDecoder[WireTrace]{buf: r.Traces[:0]}
	*r = DequeueResponse{}
	if p.open('{') {
		for first := true; p.more('}', &first); {
			switch p.key(dequeueResponseKeys) {
			case 0:
				p.values(&vals, &r.Values)
			case 1:
				p.traces(&traces, &r.Traces)
			default:
				p.skip()
			}
		}
	}
	if p.end() {
		return nil
	}
	return rejected(json.Unmarshal(b, new(DequeueResponse)))
}

// Each type's JSON field names, in the order its decoder's switch uses.
var (
	enqueueRequestKeys  = []string{"values", "timeout_ms", "idempotency_key", "trace_id"}
	dequeueRequestKeys  = []string{"max", "wait_ms"}
	enqueueResponseKeys = []string{"accepted", "trace_id"}
	dequeueResponseKeys = []string{"values", "traces"}
	wireTraceKeys       = []string{"id", "pos", "enqueued_at_unix_ns", "sojourn_ns"}
)

// rejected returns encoding/json's error for a body the codec rejected. A
// nil error means the two disagree, which FuzzWireCodec exists to rule out.
func rejected(err error) error {
	if err == nil {
		return errCodecDiverged
	}
	return err
}

var errCodecDiverged = errors.New("resilience: the wire codec rejected a body encoding/json accepts")

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// parser walks one JSON document. Any input encoding/json would reject —
// a syntax error, a value of the wrong type for its field, an integer out
// of range — sets bad and moves the cursor to the end, so every loop stops.
type parser struct {
	b     []byte
	i     int
	depth int
	bad   bool
}

func (p *parser) fail() {
	p.bad = true
	p.i = len(p.b)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (p *parser) peek() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end reports whether the document parsed and only whitespace follows it.
func (p *parser) end() bool {
	return p.peek() == 0 && p.i == len(p.b) && !p.bad
}

// lit consumes the literal word (true, false or null).
func (p *parser) lit(word string) {
	if len(p.b)-p.i >= len(word) && string(p.b[p.i:p.i+len(word)]) == word {
		p.i += len(word)
		return
	}
	p.fail()
}

// enter consumes the opening delimiter of an array or object.
func (p *parser) enter() {
	p.i++
	if p.depth++; p.depth > maxDepth {
		p.fail()
	}
}

// open consumes the start of a field's container value: the opening
// delimiter c, reporting true, or null, which leaves the field alone.
// Anything else is the wrong type for the field.
func (p *parser) open(c byte) bool {
	switch p.peek() {
	case c:
		p.enter()
		return !p.bad
	case 'n':
		p.lit("null")
	default:
		p.fail()
	}
	return false
}

// more moves to the next member or element of the open container closed
// by close, and reports false once it has consumed the closing delimiter.
// first is true until the first member.
func (p *parser) more(close byte, first *bool) bool {
	c := p.peek()
	switch {
	case p.bad:
		return false
	case c == close:
		p.i++
		p.depth--
		return false
	case *first:
		*first = false
		return true
	case c == ',':
		p.i++
		return true
	}
	p.fail()
	return false
}

// key consumes an object key and its colon and returns the index of the
// name in names that the key selects as encoding/json selects a struct
// field (an exact match, else a case-insensitive one), or -1.
func (p *parser) key(names []string) int {
	if p.peek() != '"' {
		p.fail()
		return -1
	}
	k, plain := p.str()
	if p.peek() != ':' {
		p.fail()
		return -1
	}
	p.i++
	if p.bad || len(names) == 0 {
		return -1
	}
	if !plain {
		var tmp [64]byte
		k = unquote(tmp[:0], k)
	}
	for i, name := range names {
		if string(k) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(k, []byte(name)) {
			return i
		}
	}
	return -1
}

// str consumes a string token and returns the bytes between its quotes
// and whether they are plain (no escapes, all ASCII), in which case they
// are the string's value.
func (p *parser) str() (raw []byte, plain bool) {
	start := p.i + 1
	plain = true
	for i := start; i < len(p.b); {
		switch c := p.b[i]; {
		case c == '"':
			p.i = i + 1
			return p.b[start:i], plain
		case c == '\\':
			plain = false
			if i+1 == len(p.b) {
				p.fail()
				return nil, false
			}
			switch p.b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if hex4(p.b[i+2:]) < 0 {
					p.fail()
					return nil, false
				}
				i += 6
			default:
				p.fail()
				return nil, false
			}
		case c < ' ':
			p.fail()
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	p.fail()
	return nil, false
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote appends the value of the validated string token content raw as
// encoding/json computes it: escapes resolved, an unpaired surrogate and
// each byte of invalid UTF-8 replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					var r2 rune = -1
					if i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						r2 = hex4(raw[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						dst = utf8.AppendRune(dst, pair)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\' and '/' stand for themselves
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// string decodes a string field; null leaves it alone.
func (p *parser) string(v *string) {
	switch p.peek() {
	case '"':
		raw, plain := p.str()
		if p.bad {
			return
		}
		if plain {
			*v = string(raw)
			return
		}
		var tmp [64]byte
		*v = string(unquote(tmp[:0], raw))
	case 'n':
		p.lit("null")
	default:
		p.fail()
	}
}

// uint64 decodes a uint64 field; null leaves it alone. Like
// strconv.ParseUint, it refuses a sign, a fraction or an exponent.
func (p *parser) uint64(v *uint64) {
	switch c := p.peek(); {
	case '0' <= c && c <= '9':
		if n := p.digits(1<<64 - 1); !p.bad {
			*v = n
		}
	case c == 'n':
		p.lit("null")
	default:
		p.fail()
	}
}

// int64 decodes a signed integer field of the given bit size; null leaves
// it alone. Like strconv.ParseInt, it refuses a fraction or an exponent.
func (p *parser) int64(v *int64, bits uint) {
	switch c := p.peek(); {
	case '0' <= c && c <= '9':
		if n := p.digits(1<<(bits-1) - 1); !p.bad {
			*v = int64(n)
		}
	case c == '-':
		p.i++
		if n := p.digits(1 << (bits - 1)); !p.bad {
			*v = -int64(n)
		}
	case c == 'n':
		p.lit("null")
	default:
		p.fail()
	}
}

// int decodes an int field.
func (p *parser) int(v *int) {
	n := int64(*v)
	p.int64(&n, strconv.IntSize)
	*v = int(n)
}

// digits consumes the digits of an integer literal and returns their
// value. A leading zero before more digits, a fraction, an exponent, or a
// value above max fails.
func (p *parser) digits(max uint64) uint64 {
	start := p.i
	var n uint64
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if n > (max-d)/10 {
			p.fail()
			return 0
		}
		n = n*10 + d
	}
	switch {
	case p.i == start, p.b[start] == '0' && p.i-start > 1:
		p.fail()
	case p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E'):
		p.fail()
	}
	return n
}

// wireTrace decodes one element of DequeueResponse.Traces in place; null
// leaves it alone.
func (p *parser) wireTrace(t *WireTrace) {
	if !p.open('{') {
		return
	}
	for first := true; p.more('}', &first); {
		switch p.key(wireTraceKeys) {
		case 0:
			p.string(&t.ID)
		case 1:
			p.int(&t.Pos)
		case 2:
			p.int64(&t.EnqueuedAtUnixNs, 64)
		case 3:
			p.int64(&t.SojournNs, 64)
		default:
			p.skip()
		}
	}
}

// skip consumes one value of any shape, checking its syntax.
func (p *parser) skip() {
	switch c := p.peek(); {
	case c == '{':
		p.enter()
		for first := true; p.more('}', &first); {
			p.key(nil)
			p.skip()
		}
	case c == '[':
		p.enter()
		for first := true; p.more(']', &first); {
			p.skip()
		}
	case c == '"':
		p.str()
	case c == 't':
		p.lit("true")
	case c == 'f':
		p.lit("false")
	case c == 'n':
		p.lit("null")
	case c == '-' || '0' <= c && c <= '9':
		p.number()
	default:
		p.fail()
	}
}

// number consumes a number token of any form, checking its syntax.
func (p *parser) number() {
	if p.b[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case p.run() == 0:
		p.fail()
		return
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if p.run() == 0 {
			p.fail()
			return
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if p.run() == 0 {
			p.fail()
		}
	}
}

// run consumes a run of decimal digits and returns its length.
func (p *parser) run() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// sliceDecoder decodes JSON arrays into one slice field, reproducing what
// encoding/json's reflection does when a key repeats: the second array is
// decoded over the first in place and the slice cut to its length, an
// empty array leaves a fresh empty slice, and null leaves nil. An element
// a longer second array exposes again keeps the value last decoded into it
// (a null element leaves an element alone), and one never written is zero.
// buf is the backing store, reused across documents; buf[:hi] holds the
// elements written since the field was last emptied.
type sliceDecoder[T any] struct {
	buf []T
	hi  int
}

// open starts decoding an array into *field and reports whether there is
// one; null empties the field.
func (s *sliceDecoder[T]) open(p *parser, field *[]T) bool {
	if p.open('[') {
		return true
	}
	if !p.bad {
		*field, s.hi = nil, 0
	}
	return false
}

// slot returns element i of the array being decoded into *field.
func (s *sliceDecoder[T]) slot(p *parser, field *[]T, i int) *T {
	if i == len(*field) {
		if i == cap(s.buf) {
			// Reserve room for the rest of the array at once: one element
			// per comma up to the next ']' (exact for a flat array,
			// generous for nested ones).
			rest := p.b[p.i:]
			if j := bytes.IndexByte(rest, ']'); j >= 0 {
				rest = rest[:j]
			}
			s.buf = slices.Grow(s.buf[:i], 1+bytes.Count(rest, []byte{','}))
		}
		*field = s.buf[:i+1]
		if i >= s.hi {
			var zero T
			(*field)[i], s.hi = zero, i+1
		}
	}
	return &(*field)[i]
}

// close ends an array of n elements.
func (s *sliceDecoder[T]) close(p *parser, field *[]T, n int) {
	switch {
	case p.bad:
	case n == 0:
		*field, s.hi = s.buf[:0:0], 0
		if *field == nil {
			*field = []T{}
		}
	default:
		*field = (*field)[:n]
	}
}

// values decodes a []uint64 field.
func (p *parser) values(s *sliceDecoder[uint64], field *[]uint64) {
	if !s.open(p, field) {
		return
	}
	n := 0
	for first := true; p.more(']', &first); n++ {
		p.uint64(s.slot(p, field, n))
	}
	s.close(p, field, n)
}

// traces decodes DequeueResponse.Traces.
func (p *parser) traces(s *sliceDecoder[WireTrace], field *[]WireTrace) {
	if !s.open(p, field) {
		return
	}
	n := 0
	for first := true; p.more(']', &first); n++ {
		p.wireTrace(s.slot(p, field, n))
	}
	s.close(p, field, n)
}
