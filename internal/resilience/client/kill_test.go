package client

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcrq"
	"lcrq/internal/resilience/server"
)

// The points in an exchange where killProxy cuts a connection.
const (
	killMidRequest  = iota // after the first request bytes: the server never sees a whole request
	killAnswerLost         // at the first response byte: the accept landed, its answer is lost
	killMidResponse        // partway through the response: the accept landed, the answer is torn
	numKillPhases
)

// killProxy forwards TCP connections to a backend and kills every other
// one, cycling through the kill phases. Kills are placed by byte phase, not
// by timer or RNG, so every run kills the same connections the same way.
type killProxy struct {
	l       net.Listener
	backend string
	conns   atomic.Uint64
	kills   [numKillPhases]atomic.Uint64
	wg      sync.WaitGroup
}

func newKillProxy(t *testing.T, backend string) *killProxy {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killProxy{l: l, backend: backend}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go p.serve(c, p.conns.Add(1)-1)
		}
	}()
	t.Cleanup(func() { l.Close(); p.wg.Wait() })
	return p
}

// serve relays connection number n: even connections pass untouched, odd
// ones die in phase (n/2) mod numKillPhases. I/O errors just end a relay.
func (p *killProxy) serve(client net.Conn, n uint64) {
	defer p.wg.Done()
	defer client.Close()
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer backend.Close()
	phase, buf := (n/2)%numKillPhases, make([]byte, 4096)
	if n%2 == 1 {
		p.kills[phase].Add(1)
	}
	if n%2 == 1 && phase == killMidRequest {
		k, _ := client.Read(buf)
		_, _ = backend.Write(buf[:k/2])
		return
	}
	relayed := make(chan struct{})
	go func() { _, _ = io.Copy(backend, client); close(relayed) }()
	defer func() { client.Close(); <-relayed }()
	if n%2 == 0 {
		_, _ = io.Copy(client, backend)
		return
	}
	k, _ := backend.Read(buf) // the handler has answered: its accept landed
	if phase == killMidResponse {
		_, _ = client.Write(buf[:k/2])
	}
}

// TestKilledConnectionsExactlyOnce drives keyed enqueues through killProxy,
// settles every batch whose outcome the producer could not learn by
// resending its key straight to the server, and then closes the books:
// every value is accepted and delivered exactly once.
func TestKilledConnectionsExactlyOnce(t *testing.T) {
	srv := server.New(server.Config{Queue: lcrq.New()})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	proxy := newKillProxy(t, ts.Listener.Addr().String())

	const producers, batches, batch = 2, 48, 16
	type record struct {
		key    string
		values []uint64
	}
	var (
		mu       sync.Mutex
		unknown  []record
		accepted = make(map[uint64]int)
		wg       sync.WaitGroup
	)
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One attempt per batch and no keep-alives: every batch is one
			// connection, and every kill leaves one batch unknown.
			cl := New(Config{BaseURL: "http://" + proxy.l.Addr().String(), MaxAttempts: 1,
				HTTPClient: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}})
			for i := range batches {
				r := record{key: fmt.Sprintf("p%d-%d", p, i), values: make([]uint64, batch)}
				for j := range r.values {
					r.values[j] = uint64(p+1)<<40 | uint64(i*batch+j)
				}
				n, err := cl.EnqueueKeyed(context.Background(), r.key, r.values, 0)
				mu.Lock()
				if err != nil {
					unknown = append(unknown, r)
				}
				for _, v := range r.values[:n] {
					accepted[v]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	const conns = producers * batches
	for phase := range proxy.kills {
		if got := proxy.kills[phase].Load(); got != conns/2/numKillPhases {
			t.Fatalf("kills in phase %d = %d, want %d", phase, got, conns/2/numKillPhases)
		}
	}
	if len(unknown) != conns/2 {
		t.Fatalf("%d unknown batches, want one per kill (%d)", len(unknown), conns/2)
	}

	// Settle: the dedup record answers for keys whose accept landed; a key
	// that never arrived is enqueued now.
	direct := New(Config{BaseURL: ts.URL})
	for _, r := range unknown {
		n, err := direct.EnqueueKeyed(context.Background(), r.key, r.values, 0)
		if err != nil {
			t.Fatalf("settling %s: %v", r.key, err)
		}
		for _, v := range r.values[:n] {
			accepted[v]++
		}
	}
	delivered := make(map[uint64]int)
	for {
		vs, err := direct.Dequeue(context.Background(), 256, 0)
		if err != nil {
			t.Fatalf("dequeue: %v", err)
		}
		if len(vs) == 0 {
			break
		}
		for _, v := range vs {
			delivered[v]++
		}
	}
	var lost, dups int
	for v, n := range accepted {
		switch {
		case delivered[v] == 0:
			lost++
		case n > 1 || delivered[v] > 1:
			dups++
		}
	}
	phantoms := len(delivered) - (len(accepted) - lost)
	if len(accepted) != conns*batch || lost+dups+phantoms != 0 {
		t.Fatalf("books do not close: %d of %d values accepted, %d delivered; lost %d, duplicated %d, phantom %d",
			len(accepted), conns*batch, len(delivered), lost, dups, phantoms)
	}
	landed := proxy.kills[killAnswerLost].Load() + proxy.kills[killMidResponse].Load()
	if hits := srv.Counters().IdempotentHits.Load(); hits != landed {
		t.Fatalf("%d keys settled from the dedup record, want %d (the kills after the accept landed)", hits, landed)
	}
}
