package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lcrq/internal/resilience"
)

// fakeServer scripts qserve answers: each enqueue consumes the next step.
type fakeServer struct {
	mu    sync.Mutex
	steps []fakeStep
	seen  []resilience.EnqueueRequest
}

type fakeStep struct {
	status   int
	body     any
	hangUp   bool // kill the connection instead of answering
	retryHdr string
}

func (f *fakeServer) handler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req resilience.EnqueueRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("fake server: bad body: %v", err)
		}
		f.mu.Lock()
		f.seen = append(f.seen, req)
		var step fakeStep
		if len(f.steps) > 0 {
			step, f.steps = f.steps[0], f.steps[1:]
		} else {
			step = fakeStep{status: 200, body: resilience.EnqueueResponse{Accepted: len(req.Values)}}
		}
		f.mu.Unlock()
		if step.hangUp {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("fake server: no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		if step.retryHdr != "" {
			w.Header().Set("Retry-After", step.retryHdr)
		}
		w.WriteHeader(step.status)
		_ = json.NewEncoder(w).Encode(step.body)
	})
}

func newClient(base string, tweak func(*Config)) *Client {
	cfg := Config{
		BaseURL:    base,
		BackoffMin: time.Millisecond,
		BackoffMax: 4 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return New(cfg)
}

// TestRetryOn429ThenSuccess: a full answer is retried with backoff and the
// SAME idempotency key, then the accept lands.
func TestRetryOn429ThenSuccess(t *testing.T) {
	f := &fakeServer{steps: []fakeStep{
		{status: 429, body: resilience.ErrorResponse{Error: resilience.ErrTokenFull}},
		{status: 429, body: resilience.ErrorResponse{Error: resilience.ErrTokenShedding}},
		{status: 200, body: resilience.EnqueueResponse{Accepted: 2}},
	}}
	ts := httptest.NewServer(f.handler(t))
	defer ts.Close()

	c := newClient(ts.URL, nil)
	n, err := c.Enqueue(context.Background(), []uint64{1, 2}, 0)
	if err != nil || n != 2 {
		t.Fatalf("Enqueue = %d, %v", n, err)
	}
	if got := c.Retries.Load(); got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
	if len(f.seen) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(f.seen))
	}
	key := f.seen[0].IdempotencyKey
	if key == "" {
		t.Fatal("first attempt carried no idempotency key")
	}
	for i, req := range f.seen {
		if req.IdempotencyKey != key {
			t.Fatalf("attempt %d used key %q, want %q — retries must replay the same key", i, req.IdempotencyKey, key)
		}
	}
}

// TestRetryOnTransportFailure: a killed connection is ambiguous — the key
// makes the resend safe, and the client does resend.
func TestRetryOnTransportFailure(t *testing.T) {
	f := &fakeServer{steps: []fakeStep{
		{hangUp: true},
		{status: 200, body: resilience.EnqueueResponse{Accepted: 1}},
	}}
	ts := httptest.NewServer(f.handler(t))
	defer ts.Close()

	c := newClient(ts.URL, nil)
	n, err := c.Enqueue(context.Background(), []uint64{7}, 0)
	if err != nil || n != 1 {
		t.Fatalf("Enqueue = %d, %v", n, err)
	}
	if len(f.seen) != 2 || f.seen[0].IdempotencyKey != f.seen[1].IdempotencyKey {
		t.Fatalf("transport retry did not replay the key: %+v", f.seen)
	}
}

// TestNoRetryOnTerminal: 400 and 503 answers are not retried.
func TestNoRetryOnTerminal(t *testing.T) {
	for _, tc := range []struct {
		status int
		token  string
	}{
		{400, resilience.ErrTokenBadRequest},
		{503, resilience.ErrTokenDraining},
	} {
		f := &fakeServer{steps: []fakeStep{{status: tc.status, body: resilience.ErrorResponse{Error: tc.token}}}}
		ts := httptest.NewServer(f.handler(t))
		c := newClient(ts.URL, nil)
		_, err := c.Enqueue(context.Background(), []uint64{1}, 0)
		ts.Close()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != tc.status || apiErr.Token != tc.token {
			t.Fatalf("status %d: err = %v", tc.status, err)
		}
		if len(f.seen) != 1 {
			t.Fatalf("status %d retried: %d attempts", tc.status, len(f.seen))
		}
		if c.Retries.Load() != 0 {
			t.Fatalf("status %d counted retries", tc.status)
		}
	}
}

// TestRetryAfterHonored: a Retry-After longer than the backoff base delays
// the retry at least that long.
func TestRetryAfterHonored(t *testing.T) {
	f := &fakeServer{steps: []fakeStep{
		{status: 429, body: resilience.ErrorResponse{Error: resilience.ErrTokenFull, RetryAfterSec: 1}},
	}}
	ts := httptest.NewServer(f.handler(t))
	defer ts.Close()

	c := newClient(ts.URL, nil)
	start := time.Now()
	n, err := c.Enqueue(context.Background(), []uint64{1}, 0)
	if err != nil || n != 1 {
		t.Fatalf("Enqueue = %d, %v", n, err)
	}
	// Jitter floor is base/2 = 500ms.
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("retry after %v — Retry-After: 1s was not honored", elapsed)
	}
}

// TestRetryBudget: once the bucket is dry, retryable failures return
// ErrBudgetExhausted instead of hammering the server.
func TestRetryBudget(t *testing.T) {
	alwaysFull := func() []fakeStep {
		s := make([]fakeStep, 64)
		for i := range s {
			s[i] = fakeStep{status: 429, body: resilience.ErrorResponse{Error: resilience.ErrTokenFull}}
		}
		return s
	}
	f := &fakeServer{steps: alwaysFull()}
	ts := httptest.NewServer(f.handler(t))
	defer ts.Close()

	c := newClient(ts.URL, func(cfg *Config) {
		cfg.MaxAttempts = 10
		cfg.RetryBudgetRatio = 0.5
		cfg.RetryBudgetBurst = 2
	})
	// First operation: burst of 2 retries + the 0.5 deposit spends down the
	// bucket, then exhaustion.
	_, err := c.Enqueue(context.Background(), []uint64{1}, 0)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// The original failure stays diagnosable through the wrap.
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("budget error lost the cause: %v", err)
	}
	denied := c.BudgetDenied.Load()
	if denied == 0 {
		t.Fatal("BudgetDenied not counted")
	}
	sent := len(f.seen)
	if sent >= 10 {
		t.Fatalf("budget did not bound attempts: %d sent", sent)
	}
	// Two more failing operations deposit 1.0 total — roughly one retry
	// between them, nowhere near MaxAttempts each.
	c.Enqueue(context.Background(), []uint64{2}, 0)
	c.Enqueue(context.Background(), []uint64{3}, 0)
	if extra := len(f.seen) - sent; extra > 4 {
		t.Fatalf("budget leak: %d extra attempts for two exhausted operations", extra)
	}
}

// TestBackoffJitterBounds: sleeps stay in [base/2, base] and cap at
// BackoffMax even with a huge attempt number.
func TestBackoffJitterBounds(t *testing.T) {
	c := newClient("http://unused", func(cfg *Config) {
		cfg.BackoffMin = 8 * time.Millisecond
		cfg.BackoffMax = 64 * time.Millisecond
	})
	for attempt := 1; attempt < 40; attempt++ {
		base := c.cfg.BackoffMin << (attempt - 1)
		if base > c.cfg.BackoffMax || base <= 0 {
			base = c.cfg.BackoffMax
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt, nil)
			if d < base/2 || d > base {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base/2, base)
			}
		}
	}
}
