//go:build unix

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lcrq/internal/resilience/client"
)

// runMainEnv makes the test binary act as qserve: TestSigtermDrain re-runs
// the binary with it set, so the signal wiring under test is main's own.
const runMainEnv = "QSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSigtermDrain signals a loaded qserve process: SIGTERM must turn every
// producer away with 503, a probe sent after that 503 must not be accepted,
// every confirmed value must be delivered exactly once, and the exit code
// must be 0. The consumers stop before the signal and return only after
// every producer met the 503, so the drain always has items to wait for.
func TestSigtermDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr

	cmd := exec.Command(os.Args[0], "-addr", addr, "-capacity", "256", "-quiet",
		"-drain-deadline", "20s", "-blackbox-dir", t.TempDir())
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()
	waitFor(t, "/healthz", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil && resp.StatusCode == http.StatusOK
	})

	// One attempt per request: the books want each request's own outcome.
	tr := &http.Transport{}
	newClient := func() *client.Client {
		return client.New(client.Config{BaseURL: base, MaxAttempts: 1,
			HTTPClient: &http.Client{Timeout: 10 * time.Second, Transport: tr}})
	}
	status := func(err error) int {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			return apiErr.Status
		}
		return 0
	}
	const producers, consumers, batch = 3, 3, 16
	var (
		mu        sync.Mutex
		accepted  = make(map[uint64]bool)
		delivered = make(map[uint64]int)
		confirmed atomic.Int64 // batches answered 200
		refused   atomic.Int64 // producers that met the drain's 503
	)
	var pwg sync.WaitGroup
	for p := range producers {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			cl := newClient()
			vals := make([]uint64, batch)
			next := uint64(p+1) << 40
			for seq := 0; ; seq++ {
				for j := range vals {
					vals[j] = next + uint64(j)
				}
				next += batch
				n, err := cl.EnqueueKeyed(context.Background(), fmt.Sprintf("p%d-%d", p, seq), vals, 50*time.Millisecond)
				switch status(err) {
				case http.StatusTooManyRequests:
					time.Sleep(time.Millisecond)
					continue
				case http.StatusServiceUnavailable:
					refused.Add(1)
					if n, err := cl.Enqueue(context.Background(), []uint64{^uint64(p)}, 0); err == nil {
						t.Errorf("producer %d: a probe after the 503 got %d values accepted", p, n)
					}
					return
				}
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				mu.Lock()
				for _, v := range vals[:n] {
					accepted[v] = true
				}
				mu.Unlock()
				confirmed.Add(1)
			}
		}()
	}

	// consume dequeues until stop is set, the queue is closed and drained
	// (503), or the listener is gone.
	var cwg sync.WaitGroup
	consume := func(stop *atomic.Bool) {
		defer cwg.Done()
		cl := newClient()
		for !stop.Load() {
			vs, err := cl.Dequeue(context.Background(), 32, 20*time.Millisecond)
			if err != nil && status(err) != http.StatusGatewayTimeout {
				return
			}
			mu.Lock()
			for _, v := range vs {
				delivered[v]++
			}
			mu.Unlock()
		}
	}
	var stop atomic.Bool
	cwg.Add(consumers)
	for range consumers {
		go consume(&stop)
	}
	waitFor(t, "traffic", func() bool { return confirmed.Load() >= 32 })
	stop.Store(true)
	cwg.Wait()
	// With the consumers stopped, more values accepted than delivered means
	// the queue holds some, and it keeps them until the drain.
	waitFor(t, "a queued value", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(accepted) > len(delivered)
	})

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	pwg.Wait()
	cwg.Add(consumers)
	for range consumers {
		go consume(new(atomic.Bool))
	}
	cwg.Wait()
	// A connection the transport dialed but never used holds the listener's
	// shutdown for 5s; close it.
	tr.CloseIdleConnections()

	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("qserve exited with %v, want 0; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("qserve did not exit within 30s of SIGTERM")
	}
	if got := refused.Load(); got != producers {
		t.Errorf("%d of %d producers met the drain's 503", got, producers)
	}
	mu.Lock()
	defer mu.Unlock()
	var wrong int
	for v := range accepted {
		if delivered[v] != 1 {
			wrong++
		}
	}
	if wrong != 0 || len(delivered) != len(accepted) {
		t.Errorf("%d of %d accepted values not delivered exactly once; %d distinct values delivered",
			wrong, len(accepted), len(delivered))
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
