// Package queues defines the uniform queue interface and the name →
// constructor registry shared by the benchmark harness, the cross-
// implementation test suite, and the cmd/ drivers. Every queue evaluated in
// the paper is registered here under the name used in its figures.
package queues

import (
	"fmt"
	"sort"
	"time"

	"lcrq/internal/instrument"
)

// Config carries the construction parameters a queue implementation may
// care about; implementations ignore fields that do not apply to them.
type Config struct {
	// RingOrder is log2 of the ring size for the LCRQ family (0 = default).
	RingOrder int
	// Clusters is the cluster count for hierarchical variants (H-Queue,
	// LCRQ+H). 0 means 1.
	Clusters int
	// Threads is the expected worker count, used to size combiner batch
	// bounds and the channel baseline's buffer.
	Threads int
	// ClusterTimeout is the LCRQ+H admission timeout (0 = paper default).
	ClusterTimeout time.Duration
	// Prefill hints how many items will be pre-inserted, so bounded
	// implementations (the channel baseline) can size themselves.
	Prefill int
}

// Queue is a constructed queue instance.
type Queue interface {
	// Name returns the registry name the instance was created under.
	Name() string
	// NewHandle returns a per-thread operation context. worker is a dense
	// worker index, cluster the worker's cluster id (both from the
	// placement policy).
	NewHandle(worker, cluster int) Handle
}

// Handle is a single thread's interface to a queue. Implementations are not
// safe for concurrent use of one handle.
type Handle interface {
	Enqueue(v uint64)
	Dequeue() (v uint64, ok bool)
	// Counters exposes the handle's instrumentation for Tables 2 and 3.
	Counters() *instrument.Counters
	// Release frees per-thread resources (hazard records, publication
	// records). The handle must not be used afterwards.
	Release()
}

// BatchHandle is implemented by handles whose queue supports batched
// operations (one index reservation per block of items). EnqueueBatch
// appends every value of vs before returning and returns how many landed —
// less than len(vs) only if the queue closed mid-batch. DequeueBatch fills out
// with up to len(out) values and returns how many it wrote; 0 means the
// queue was observed empty.
type BatchHandle interface {
	EnqueueBatch(vs []uint64) int
	DequeueBatch(out []uint64) int
}

// Factory builds a queue instance from a configuration.
type Factory func(cfg Config) Queue

var registry = map[string]Factory{}

// Register adds a factory under name; it panics on duplicates (registration
// happens from init functions).
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("queues: duplicate registration of " + name)
	}
	registry[name] = f
}

// New constructs the named queue.
func New(name string, cfg Config) (Queue, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("queues: unknown queue %q (have %v)", name, Names())
	}
	if cfg.Clusters < 1 {
		cfg.Clusters = 1
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	return f(cfg), nil
}

// Names returns all registered queue names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
