package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lcrq/internal/resilience"
	"lcrq/internal/resilience/client"
)

// batchRecord tracks one keyed batch's ground truth: which values the
// server confirmed holding. accepted < 0 means the outcome is unknown (the
// connection died before an answer) until the key is settled.
type batchRecord struct {
	key      string
	values   []uint64
	accepted int
}

type killResult struct {
	Kills      uint64
	Batches    int
	Resolved   int
	Accepted   uint64
	Delivered  uint64
	Duplicates uint64
	Lost       uint64
	Phantoms   uint64
}

// runKilledConnections drives enqueues through the killer proxy, then
// settles every ambiguous batch by resending its idempotency key directly,
// and checks the books: every confirmed value delivered exactly once.
func runKilledConnections(qservePath string, dur time.Duration) (*killResult, error) {
	p, err := spawnQserve(qservePath, 0)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	proxy, err := newKillerProxy(p.addr, 0.3)
	if err != nil {
		return nil, err
	}
	defer proxy.close()
	proxy.arm()

	const producers, batch = 2, 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		batches []*batchRecord
	)
	stop := make(chan struct{})
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Few attempts and tiny backoff: the point is to produce
			// unresolved batches, not to hide the kills behind retries.
			// Keep-alives off so every request is a fresh connection and
			// gets a fresh roll of the proxy's kill die.
			cl := client.New(client.Config{
				BaseURL:     "http://" + proxy.addr(),
				MaxAttempts: 2,
				BackoffMin:  time.Millisecond,
				BackoffMax:  4 * time.Millisecond,
				HTTPClient: &http.Client{
					Timeout:   2 * time.Second,
					Transport: &http.Transport{DisableKeepAlives: true},
				},
			})
			next := uint64(id+1) << 40
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := &batchRecord{
					key:      fmt.Sprintf("kc-p%d-%d", id, seq),
					values:   make([]uint64, batch),
					accepted: -1,
				}
				for j := range rec.values {
					rec.values[j] = next + uint64(j)
				}
				next += batch
				n, err := cl.EnqueueKeyed(ctx, rec.key, rec.values, 0)
				if err == nil {
					rec.accepted = n
				}
				// Any error — transport kill, budget, 429 past the cap —
				// leaves the batch unknown; the settle pass decides it.
				mu.Lock()
				batches = append(batches, rec)
				mu.Unlock()
			}
		}(i)
	}

	delivered := make(map[uint64]int)
	var cwg sync.WaitGroup
	consumeCtx, consumeCancel := context.WithCancel(context.Background())
	defer consumeCancel()
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		cl := client.New(client.Config{BaseURL: p.base})
		for consumeCtx.Err() == nil {
			vs, err := cl.Dequeue(consumeCtx, 64, 20*time.Millisecond)
			if err != nil {
				continue // empty polls and budget denials: keep draining
			}
			mu.Lock()
			for _, v := range vs {
				delivered[v]++
			}
			mu.Unlock()
		}
	}()

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	proxy.disarm()

	// Settle: resend every unknown key directly (no proxy). The server's
	// dedup answers with the recorded outcome for keys that did land; for
	// keys that never arrived this is the first delivery. Either way the
	// books close.
	res := &killResult{Kills: proxy.kills.Load(), Batches: len(batches)}
	settle := client.New(client.Config{BaseURL: p.base, MaxAttempts: 8})
	for _, rec := range batches {
		if rec.accepted >= 0 {
			continue
		}
		n, err := settle.EnqueueKeyed(context.Background(), rec.key, rec.values, time.Second)
		if err != nil {
			return nil, fmt.Errorf("settling %s: %w", rec.key, err)
		}
		rec.accepted = n
		res.Resolved++
	}
	var expect uint64
	for _, rec := range batches {
		expect += uint64(rec.accepted)
	}

	// Let the consumer catch up to the confirmed total, then stop it.
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		got := uint64(0)
		for _, n := range delivered {
			got += uint64(n)
		}
		mu.Unlock()
		if got >= expect || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	consumeCancel()
	cwg.Wait()

	mu.Lock()
	defer mu.Unlock()
	seen := make(map[uint64]bool)
	for _, rec := range batches {
		for i, v := range rec.values {
			seen[v] = true
			want := 0
			if i < rec.accepted {
				want = 1
			}
			switch {
			case want == 1 && delivered[v] == 0:
				res.Lost++
			case delivered[v] > want:
				res.Duplicates++
			}
			if want == 1 {
				res.Accepted++
			}
		}
	}
	for v, n := range delivered {
		res.Delivered += uint64(n)
		if !seen[v] {
			res.Phantoms++
		}
	}
	if res.Phantoms > 0 {
		res.Lost += res.Phantoms // phantoms mean the books are wrong either way
	}
	return res, nil
}

type shedResult struct {
	ShedAfterMs      float64
	ShedHeader       bool
	RecoverMs        float64
	WatchdogRecovers uint64
}

// runSlowConsumer pins a small bounded queue at capacity with nobody
// consuming: the watchdog must flag capacity-stall, the shedder must turn
// enqueues into pre-hot-path 429s (X-Load-Shed: 1), and once consumers
// return the whole stack must recover, leaving a watchdog-recover event.
func runSlowConsumer(qservePath string) (*shedResult, error) {
	p, err := spawnQserve(qservePath, 64, "-watchdog", "10ms", "-health-poll", "5ms")
	if err != nil {
		return nil, err
	}
	defer p.kill()

	post := func(path string, body any) (*http.Response, []byte, error) {
		b, _ := json.Marshal(body)
		resp, err := http.Post(p.base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data, nil
	}

	// Fill to the brim.
	fill := make([]uint64, 64)
	for i := range fill {
		fill[i] = uint64(i + 1)
	}
	if _, _, err := post("/v1/enqueue", resilience.EnqueueRequest{Values: fill}); err != nil {
		return nil, err
	}

	// Hammer until the shed answer arrives (not just "full": the header
	// proves the admission controller rejected before the hot path).
	res := &shedResult{}
	start := time.Now()
	deadline := start.Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shedder never opened; stderr:\n%s", p.stderr.String())
		}
		resp, _, err := post("/v1/enqueue", resilience.EnqueueRequest{Values: []uint64{99}})
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("X-Load-Shed") == "1" {
			res.ShedAfterMs = float64(time.Since(start).Microseconds()) / 1000
			res.ShedHeader = true
			if resp.Header.Get("Retry-After") == "" {
				return nil, errors.New("shed 429 carried no Retry-After")
			}
			break
		}
		time.Sleep(500 * time.Microsecond)
	}

	// Consumers return: drain everything, then wait for admission to close.
	recoverStart := time.Now()
	for {
		resp, data, err := post("/v1/dequeue", resilience.DequeueRequest{Max: 64})
		if err != nil {
			return nil, err
		}
		var out resilience.DequeueResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &out) != nil || len(out.Values) == 0 {
			break
		}
	}
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shedder never closed; stderr:\n%s", p.stderr.String())
		}
		stats, err := statsz(p.base)
		if err != nil {
			return nil, err
		}
		res.WatchdogRecovers = stats.RingEvents["watchdog-recover"]
		if !stats.Shed.Shedding {
			res.RecoverMs = float64(time.Since(recoverStart).Microseconds()) / 1000
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res.WatchdogRecovers == 0 {
		// The recover event may land a tick after the shedder closes.
		for i := 0; i < 100 && res.WatchdogRecovers == 0; i++ {
			time.Sleep(5 * time.Millisecond)
			stats, err := statsz(p.base)
			if err != nil {
				return nil, err
			}
			res.WatchdogRecovers = stats.RingEvents["watchdog-recover"]
		}
	}
	return res, nil
}

type statszBody struct {
	State string `json:"state"`
	Shed  struct {
		Shedding bool
		Verdict  string
	} `json:"shed"`
	RingEvents map[string]uint64 `json:"ring_events"`
}

func statsz(base string) (*statszBody, error) {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out statszBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

type drainResult struct {
	Accepted         uint64
	Delivered        uint64
	Unknown          int
	Duplicates       uint64
	Lost             uint64
	Phantoms         uint64
	PostDrainAccepts uint64
	ExitCode         int
	DrainMs          float64
}

// runSigtermDrain signals a loaded server and audits the drain contract:
// everything confirmed accepted is delivered exactly once, an enqueue
// probe after the first drain rejection is refused, and the process exits
// cleanly.
func runSigtermDrain(qservePath string) (*drainResult, error) {
	p, err := spawnQserve(qservePath, 256, "-drain-deadline", "20s")
	if err != nil {
		return nil, err
	}
	defer p.kill()

	const producers, consumers, batch = 3, 3, 16
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		batches   []*batchRecord
		delivered = make(map[uint64]int)
		probed    atomic.Bool
		postDrain atomic.Uint64
		res       = &drainResult{}
	)

	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := client.New(client.Config{
				BaseURL:     p.base,
				MaxAttempts: 1, // ambiguity accounting wants raw outcomes
				HTTPClient:  &http.Client{Timeout: 5 * time.Second},
			})
			next := uint64(id+1) << 40
			for seq := 0; ; seq++ {
				rec := &batchRecord{
					key:      fmt.Sprintf("st-p%d-%d", id, seq),
					values:   make([]uint64, batch),
					accepted: -1,
				}
				for j := range rec.values {
					rec.values[j] = next + uint64(j)
				}
				next += batch
				n, err := cl.EnqueueKeyed(context.Background(), rec.key, rec.values, 50*time.Millisecond)
				switch {
				case err == nil:
					rec.accepted = n
				default:
					var apiErr *client.APIError
					if errors.As(err, &apiErr) {
						switch apiErr.Status {
						case http.StatusTooManyRequests:
							rec.accepted = n // full: the leading n are in
							mu.Lock()
							batches = append(batches, rec)
							mu.Unlock()
							time.Sleep(time.Millisecond)
							continue
						case http.StatusServiceUnavailable:
							// Draining. A partial accept before the drain cut
							// the wait short still counts.
							rec.accepted = n
							mu.Lock()
							batches = append(batches, rec)
							mu.Unlock()
							// The post-drain probe: one more enqueue, which
							// must NOT be accepted.
							if probed.CompareAndSwap(false, true) {
								pn, perr := cl.Enqueue(context.Background(), []uint64{^uint64(id + 1)}, 0)
								if perr == nil && pn > 0 {
									postDrain.Add(uint64(pn))
								}
							}
							return
						}
					}
					// Transport failure or other ambiguity: outcome unknown.
					mu.Lock()
					batches = append(batches, rec)
					mu.Unlock()
					return
				}
				mu.Lock()
				batches = append(batches, rec)
				mu.Unlock()
			}
		}(i)
	}

	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(client.Config{
				BaseURL:     p.base,
				MaxAttempts: 1,
				HTTPClient:  &http.Client{Timeout: 5 * time.Second},
			})
			for {
				vs, err := cl.Dequeue(context.Background(), 32, 50*time.Millisecond)
				if err != nil {
					var apiErr *client.APIError
					if errors.As(err, &apiErr) {
						if apiErr.Status == http.StatusServiceUnavailable {
							return // closed and drained: terminal
						}
						continue // 504 empty poll: keep going through the drain
					}
					return // transport: the listener is gone
				}
				mu.Lock()
				for _, v := range vs {
					delivered[v]++
				}
				mu.Unlock()
			}
		}()
	}

	time.Sleep(500 * time.Millisecond)
	termAt := time.Now()
	if err := p.terminate(); err != nil {
		return nil, err
	}
	wg.Wait()
	code, err := p.waitExit(30 * time.Second)
	if err != nil {
		return nil, err
	}
	res.ExitCode = code
	res.DrainMs = float64(time.Since(termAt).Microseconds()) / 1000
	res.PostDrainAccepts = postDrain.Load()

	mu.Lock()
	defer mu.Unlock()
	seen := make(map[uint64]bool)
	for _, rec := range batches {
		if rec.accepted < 0 {
			// Unknown outcome (connection died with the answer): its values
			// may legitimately appear in delivered — excluded from the
			// exactly-once books, counted so a noisy run is visible.
			res.Unknown++
			for _, v := range rec.values {
				seen[v] = true
			}
			continue
		}
		for i, v := range rec.values {
			seen[v] = true
			want := 0
			if i < rec.accepted {
				want = 1
				res.Accepted++
			}
			switch {
			case want == 1 && delivered[v] == 0:
				res.Lost++
			case want == 1 && delivered[v] > 1:
				res.Duplicates++
			case want == 0 && delivered[v] > 0:
				res.Phantoms++
			}
		}
	}
	for v, n := range delivered {
		res.Delivered += uint64(n)
		if !seen[v] {
			res.Phantoms++
		}
	}
	return res, nil
}
