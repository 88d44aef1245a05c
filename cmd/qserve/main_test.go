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

// runMainEnv makes the test binary act as qserve: startQserve re-runs the
// binary with it set, so the signal wiring under test is main's own.
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
	q := startQserve(t, "-capacity", "256", "-quiet", "-drain-deadline", "20s")
	base := q.base

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

	if err := q.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	pwg.Wait()
	cwg.Add(consumers)
	for range consumers {
		go consume(new(atomic.Bool))
	}
	cwg.Wait()

	if err := q.wait(); err != nil {
		t.Error(err)
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

// TestSigtermIdleConnection signals qserve while a client holds a
// connection that has sent nothing: the exit must not wait on it, so the
// listener's shutdown must not time out.
func TestSigtermIdleConnection(t *testing.T) {
	q := startQserve(t)
	idle, err := net.Dial("tcp", q.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// The server accepts connections in order, so once this request is
	// answered the idle connection has been accepted too.
	resp, err := http.Get(q.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if err := q.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := q.wait(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(q.stderr.String(), "listener shutdown") {
		t.Errorf("the listener's shutdown failed; stderr:\n%s", q.stderr.String())
	}
}

// qserveProc is a qserve process started by startQserve.
type qserveProc struct {
	addr, base string
	cmd        *exec.Cmd
	exited     chan error
	stderr     strings.Builder
}

// startQserve runs the test binary as qserve on a free port with the given
// flags, and returns once /healthz answers 200. The process is killed when
// the test ends.
func startQserve(t *testing.T, args ...string) *qserveProc {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	q := &qserveProc{addr: l.Addr().String(), exited: make(chan error, 1)}
	l.Close()
	q.base = "http://" + q.addr

	args = append([]string{"-addr", q.addr, "-blackbox-dir", t.TempDir()}, args...)
	q.cmd = exec.Command(os.Args[0], args...)
	q.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	q.cmd.Stderr = &q.stderr
	if err := q.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { q.exited <- q.cmd.Wait() }()
	t.Cleanup(func() { q.cmd.Process.Kill() })
	waitFor(t, "/healthz", func() bool {
		resp, err := http.Get(q.base + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil && resp.StatusCode == http.StatusOK
	})
	return q
}

// wait returns nil once the process has exited 0, or an error that
// carries its stderr.
func (q *qserveProc) wait() error {
	select {
	case err := <-q.exited:
		if err != nil {
			return fmt.Errorf("qserve exited with %v, want 0; stderr:\n%s", err, q.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("qserve did not exit within 30s of SIGTERM")
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
