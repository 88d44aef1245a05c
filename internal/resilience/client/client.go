// Package client is the retrying companion to internal/resilience/server:
// a small library that speaks the qserve wire protocol with the failure
// handling a caller would otherwise reinvent badly.
//
//   - Jittered exponential backoff between attempts, honoring the server's
//     Retry-After hint when one arrives (a 429 carries the drain-rate
//     estimate; guessing shorter just burns the retry budget).
//   - A retry budget: retries spend from a bucket that refills as a
//     fraction of first attempts, so a broken server gets a trickle of
//     probes, not a storm that doubles its load exactly when it is least
//     able to take it.
//   - Idempotency keys on every enqueue batch, generated once per logical
//     batch and resent verbatim on retry — the server's dedup cache turns
//     an ambiguous transport failure ("did my accept land?") into a safe
//     resend.
//
// The client retries what the taxonomy marks retryable: transport errors,
// 429 (shedding or full), and 504 (deadline). It does not retry 400 (the
// request is wrong), 503 (the server is draining or closed — new work is
// not wanted), or any other status.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcrq/internal/resilience"
)

// Config configures a Client. BaseURL is required.
type Config struct {
	// BaseURL of the qserve instance, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient to use; http.DefaultClient when nil.
	HTTPClient *http.Client

	// MaxAttempts bounds tries per operation, first attempt included
	// (default 4). The context may end retries earlier; so may the budget.
	MaxAttempts int
	// BackoffMin is the first retry's base delay (default 10ms); each
	// subsequent retry doubles it up to BackoffMax (default 2s). The actual
	// sleep is uniformly jittered in [base/2, base). A server Retry-After
	// overrides the base when it is longer.
	BackoffMin time.Duration
	BackoffMax time.Duration

	// RetryBudgetRatio sets how many retries the budget earns per first
	// attempt (default 0.2: one retry per five requests, steady-state).
	// RetryBudgetBurst is the bucket's cap (default 10), which is also the
	// initial balance so cold starts can retry at all.
	RetryBudgetRatio float64
	RetryBudgetBurst int

	// KeyPrefix namespaces idempotency keys (default: a random per-client
	// token). Two clients must not share a prefix.
	KeyPrefix string
}

// Client speaks the qserve protocol with retries. Safe for concurrent use.
type Client struct {
	cfg    Config
	http   *http.Client
	budget *budget
	keySeq atomic.Uint64
	// The endpoint URLs, parsed once; requests share them read-only. When
	// BaseURL does not parse they are nil and urlErr says why.
	enqueueURL, dequeueURL *url.URL
	urlErr                 error

	mu  sync.Mutex
	rng *rand.Rand

	// Retries counts retry attempts actually sent; BudgetDenied counts
	// retries the budget suppressed. Exposed for tests and load drivers.
	Retries      atomic.Uint64
	BudgetDenied atomic.Uint64
}

// New returns a Client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	if cfg.BaseURL == "" {
		panic("client.New: Config.BaseURL is required")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = cfg.BackoffMin
	}
	if cfg.RetryBudgetRatio <= 0 {
		cfg.RetryBudgetRatio = 0.2
	}
	if cfg.RetryBudgetBurst <= 0 {
		cfg.RetryBudgetBurst = 10
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	if cfg.KeyPrefix == "" {
		cfg.KeyPrefix = fmt.Sprintf("c%08x", rng.Uint32())
	}
	c := &Client{
		cfg:    cfg,
		http:   cfg.HTTPClient,
		budget: newBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		rng:    rng,
	}
	c.enqueueURL, c.urlErr = endpoint(cfg.BaseURL + "/v1/enqueue")
	if c.urlErr == nil {
		c.dequeueURL, c.urlErr = endpoint(cfg.BaseURL + "/v1/dequeue")
	}
	return c
}

// endpoint parses an endpoint URL as http.NewRequest would.
func endpoint(raw string) (*url.URL, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	u.Host = strings.TrimSuffix(u.Host, ":")
	return u, nil
}

// nextKey returns a fresh idempotency key: the prefix and a sequence number.
func (c *Client) nextKey() string {
	var buf [64]byte
	b := append(append(buf[:0], c.cfg.KeyPrefix...), '-')
	return string(strconv.AppendUint(b, c.keySeq.Add(1), 10))
}

// bufPool holds the buffers response bodies are read into.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf is the largest buffer returned to bufPool; a larger one,
// left by an unusually large response, goes to the collector instead.
const maxPooledBuf = 64 << 10

// jsonContentType is the Content-Type of every request. The slice is
// shared, so it must not be modified.
var jsonContentType = []string{"application/json"}

// Spans decomposes one client call's wall time for cross-layer trace
// attribution: where an operation's latency went, as seen from the caller.
// Backoff is the client-inflicted part (retry sleeps); Wire is time spent
// inside HTTP exchanges (rejected attempts included); LastWire is the final
// — for successful calls, the accepted — exchange alone, so Wire-LastWire
// is the cost of the attempts the server turned away (shed/full/deadline).
type Spans struct {
	Attempts int           // HTTP exchanges performed
	Backoff  time.Duration // total slept between attempts (the client-backoff span)
	Wire     time.Duration // total time inside HTTP exchanges, all attempts
	LastWire time.Duration // the final exchange alone
	Total    time.Duration // end-to-end call time, Backoff and Wire included
}

// APIError is a non-2xx answer from the server, decoded.
type APIError struct {
	Status     int
	Token      string // wire token: "shedding", "full", "draining", ...
	Detail     string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("qserve: %s (%d): %s", e.Token, e.Status, e.Detail)
}

// Retryable reports whether the protocol permits retrying this answer.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusGatewayTimeout
}

// ErrBudgetExhausted is wrapped into the returned error when a retryable
// failure could not be retried because the retry budget was empty.
var ErrBudgetExhausted = errors.New("client: retry budget exhausted")

// Enqueue sends values as one batch, retrying under one idempotency key
// until accepted, a terminal answer, the attempt cap, the budget, or ctx.
// It returns how many leading values the server holds. A partial accept is
// success: the caller resends the tail as a new batch.
func (c *Client) Enqueue(ctx context.Context, values []uint64, timeout time.Duration) (int, error) {
	return c.EnqueueKeyed(ctx, c.nextKey(), values, timeout)
}

// EnqueueKeyed is Enqueue under a caller-chosen idempotency key. Use it
// when the outcome must be resolvable across client instances or retry
// loops: any later send of the same key and batch — from this client or
// another — answers from the server's record instead of enqueueing again,
// so a batch whose response was lost to a dead connection can be settled
// definitively by resending it.
func (c *Client) EnqueueKeyed(ctx context.Context, key string, values []uint64, timeout time.Duration) (int, error) {
	n, _, err := c.enqueue(ctx, resilience.EnqueueRequest{
		Values:         values,
		TimeoutMs:      timeout.Milliseconds(),
		IdempotencyKey: key,
	})
	return n, err
}

// Dequeue asks for up to max values, long-polling up to wait. An immediate
// probe (wait 0) of an empty queue returns ([], nil); a long-poll that
// stays empty surfaces the server's 504 as a retryable *APIError, so the
// retry loop (budget permitting) keeps polling. A 503 *APIError with token
// "closed" is terminal: the queue is drained for good.
func (c *Client) Dequeue(ctx context.Context, max int, wait time.Duration) ([]uint64, error) {
	out, _, err := c.dequeue(ctx, max, wait)
	if err != nil {
		return nil, err
	}
	return out.Values, nil
}

// EnqueueTraced is EnqueueKeyed with a trace identity: the server stamps
// traceID onto the first value it accepts, so the dequeue that claims the
// value reports the identity and its measured ring sojourn. Retries resend
// the same key and traceID, keeping a replayed accept one trace. The
// returned Spans decompose this call's wall time (backoff vs wire) for
// end-to-end latency attribution.
func (c *Client) EnqueueTraced(ctx context.Context, key string, values []uint64, timeout time.Duration, traceID uint64) (int, Spans, error) {
	if key == "" {
		key = c.nextKey()
	}
	return c.enqueue(ctx, resilience.EnqueueRequest{
		Values:         values,
		TimeoutMs:      timeout.Milliseconds(),
		IdempotencyKey: key,
		TraceID:        resilience.FormatTraceID(traceID),
	})
}

// DequeueTraced is Dequeue returning the item traces riding on the
// response (stamped items among the values) and the call's Spans. Most
// responses carry no traces unless the server's queue samples aggressively
// or enqueuers force identities.
func (c *Client) DequeueTraced(ctx context.Context, max int, wait time.Duration) ([]uint64, []resilience.WireTrace, Spans, error) {
	out, sp, err := c.dequeue(ctx, max, wait)
	if err != nil {
		return nil, nil, sp, err
	}
	return out.Values, out.Traces, sp, nil
}

// enqueue runs one EnqueueKeyed or EnqueueTraced call. The request body
// gets a buffer of its own: the transport may still be reading a body
// after the exchange returns, so request bodies are not pooled.
func (c *Client) enqueue(ctx context.Context, req resilience.EnqueueRequest) (int, Spans, error) {
	n := 64 + 21*len(req.Values) + len(req.IdempotencyKey) + len(req.TraceID)
	payload := resilience.AppendEnqueueRequest(make([]byte, 0, n), req)
	var out resilience.EnqueueResponse
	sp, err := c.doSpans(ctx, c.enqueueURL, payload, func(b []byte) error {
		return resilience.DecodeEnqueueResponse(b, &out)
	})
	return out.Accepted, sp, err
}

// dequeue runs one Dequeue or DequeueTraced call.
func (c *Client) dequeue(ctx context.Context, max int, wait time.Duration) (resilience.DequeueResponse, Spans, error) {
	payload := resilience.AppendDequeueRequest(make([]byte, 0, 48),
		resilience.DequeueRequest{Max: max, WaitMs: wait.Milliseconds()})
	var out resilience.DequeueResponse
	sp, err := c.doSpans(ctx, c.dequeueURL, payload, func(b []byte) error {
		return resilience.DecodeDequeueResponse(b, &out)
	})
	return out, sp, err
}

// doSpans runs one request with the retry loop, sending payload to u and
// handing a 200 answer's body to decode. Every sleep and exchange is timed
// so traced callers can attribute the call's latency (see Spans).
func (c *Client) doSpans(ctx context.Context, u *url.URL, payload []byte, decode func([]byte) error) (Spans, error) {
	var sp Spans
	start := time.Now()
	c.budget.deposit()

	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			// A retry must clear the budget first, then wait out the backoff.
			if !c.budget.withdraw() {
				c.BudgetDenied.Add(1)
				sp.Total = time.Since(start)
				return sp, fmt.Errorf("%w after %w", ErrBudgetExhausted, lastErr)
			}
			c.Retries.Add(1)
			t0 := time.Now()
			err := c.sleep(ctx, c.backoff(attempt, lastErr))
			sp.Backoff += time.Since(t0)
			if err != nil {
				sp.Total = time.Since(start)
				return sp, err
			}
		}
		t0 := time.Now()
		lastErr = c.once(ctx, u, payload, decode)
		sp.LastWire = time.Since(t0)
		sp.Wire += sp.LastWire
		sp.Attempts++
		if lastErr == nil {
			sp.Total = time.Since(start)
			return sp, nil
		}
		var apiErr *APIError
		if errors.As(lastErr, &apiErr) && !apiErr.Retryable() {
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	sp.Total = time.Since(start)
	return sp, lastErr
}

// once performs a single HTTP exchange.
func (c *Client) once(ctx context.Context, u *url.URL, payload []byte, decode func([]byte) error) error {
	if u == nil {
		return c.urlErr
	}
	// What http.NewRequestWithContext builds, without parsing the URL again.
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Host:          u.Host,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": jsonContentType},
		Body:          io.NopCloser(bytes.NewReader(payload)),
		ContentLength: int64(len(payload)),
		GetBody: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(payload)), nil
		},
	}).WithContext(ctx)
	resp, err := c.http.Do(req)
	if err != nil {
		return err // transport failure: retryable (keys make resends safe)
	}
	defer resp.Body.Close()
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			buf.Reset()
			bufPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, 1<<20)); err != nil {
		return err
	}
	data := buf.Bytes()
	if resp.StatusCode == http.StatusOK {
		return decode(data)
	}
	apiErr := &APIError{Status: resp.StatusCode}
	var e resilience.ErrorResponse
	if json.Unmarshal(data, &e) == nil {
		apiErr.Token, apiErr.Detail = e.Error, e.Detail
		if e.RetryAfterSec > 0 {
			apiErr.RetryAfter = time.Duration(e.RetryAfterSec) * time.Second
		}
	}
	if apiErr.RetryAfter == 0 {
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			apiErr.RetryAfter = time.Duration(s) * time.Second
		}
	}
	return apiErr
}

// backoff computes the sleep before retry number attempt (1-based): the
// exponential base, raised to any server Retry-After, jittered to
// [base/2, base) so synchronized clients desynchronize.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	base := c.cfg.BackoffMin << (attempt - 1)
	if base > c.cfg.BackoffMax || base <= 0 {
		base = c.cfg.BackoffMax
	}
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > base {
		base = apiErr.RetryAfter
	}
	c.mu.Lock()
	jittered := base/2 + time.Duration(c.rng.Int63n(int64(base/2)+1))
	c.mu.Unlock()
	return jittered
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
