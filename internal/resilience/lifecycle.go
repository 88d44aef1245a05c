package resilience

import (
	"context"
	"sync"
	"sync/atomic"
)

// State is the position of a component in the serving→draining→closed
// progression. The transitions are one-way: a component that has begun
// draining never serves new work again, and a closed component never
// reopens — restarts are a supervisor's job, not a state machine edge.
type State int32

const (
	// Serving: admitting new work.
	Serving State = iota
	// Draining: new work is rejected; previously accepted work is being
	// delivered. Entered by BeginDrain (SIGTERM, admin request).
	Draining
	// Closed: all accepted work is delivered (or the drain deadline
	// expired) and the component has shut its listener.
	Closed
)

// String returns the state's wire name, as served by health endpoints.
func (s State) String() string {
	switch s {
	case Serving:
		return "serving"
	case Draining:
		return "draining"
	case Closed:
		return "closed"
	}
	return "unknown"
}

// A Lifecycle tracks the drain state machine and lets request handlers
// read it with one atomic load while shutdown logic waits on transitions.
// The zero value is Serving.
type Lifecycle struct {
	state      atomic.Int32
	draining   context.Context
	endServing context.CancelFunc // cancels draining
	closed     chan struct{}
	initOnce   sync.Once
	drainOne   sync.Once
	closeOne   sync.Once
}

func (l *Lifecycle) init() {
	l.initOnce.Do(func() {
		l.draining, l.endServing = context.WithCancel(context.Background())
		l.closed = make(chan struct{})
	})
}

// State returns the current state (one atomic load).
func (l *Lifecycle) State() State { return State(l.state.Load()) }

// BeginDrain moves Serving→Draining and reports whether this call made the
// transition (false if a drain had already begun or the lifecycle is
// closed). Idempotent and safe for concurrent use — a SIGTERM and an admin
// drain request racing each other drain once.
func (l *Lifecycle) BeginDrain() bool {
	l.init()
	first := false
	l.drainOne.Do(func() {
		l.state.CompareAndSwap(int32(Serving), int32(Draining))
		l.endServing()
		first = true
	})
	return first
}

// MarkClosed moves the lifecycle to Closed (from any state; a close without
// a drain is an abort, and the channels still release their waiters).
func (l *Lifecycle) MarkClosed() {
	l.init()
	l.closeOne.Do(func() {
		l.drainOne.Do(l.endServing) // an un-drained close still releases drain waiters
		l.state.Store(int32(Closed))
		close(l.closed)
	})
}

// Draining returns a context cancelled once draining (or closing) begins.
// A wait that a drain must cut short hangs off it with context.AfterFunc.
func (l *Lifecycle) Draining() context.Context { l.init(); return l.draining }

// Done returns a channel closed once the lifecycle reaches Closed.
func (l *Lifecycle) Done() <-chan struct{} { l.init(); return l.closed }
