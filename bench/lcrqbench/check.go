package main

import "fmt"

// Every value a producer enqueues is tag(producer, seq): the producer in the
// top bits, its own sequence number below. No tag equals lcrq.Reserved, and
// every tag stays below 2^53 so it survives any JSON consumer exactly.
const (
	tagShift = 48
	seqMask  = 1<<tagShift - 1
)

func tag(producer int, seq uint64) uint64 { return uint64(producer)<<tagShift | seq }

// tally summarises a set of sequence numbers by count, sum and sum of
// squares (mod 2^64). Two sets with equal tallies are, short of an
// adversary, the same set: a lost item and a duplicated one can cancel in
// the count, but not also in the sum and the sum of squares.
type tally struct{ n, sum, sumSq uint64 }

func (t *tally) add(seq uint64) {
	t.n++
	t.sum += seq
	t.sumSq += seq * seq
}

func (t *tally) merge(o tally) {
	t.n += o.n
	t.sum += o.sum
	t.sumSq += o.sumSq
}

// checker is one consumer's view of the queue's output. FIFO order means
// a consumer must see each producer's sequence numbers strictly increase:
// a repeat is a duplicate, a step back is a reorder. Its state is inline,
// so a checker embedded in a worker shares no cache line with another
// worker's.
type checker struct {
	producers  int
	next       [workers]uint64 // next[p] is one past the last seq seen from producer p
	got        [workers]tally
	violations uint64
}

// newChecker returns a checker for at most workers producers.
func newChecker(producers int) *checker { return &checker{producers: producers} }

// see records one dequeued value and reports whether it was in order.
func (c *checker) see(v uint64) bool {
	p, seq := v>>tagShift, v&seqMask
	if p >= uint64(c.producers) || seq < c.next[p] {
		c.violations++
		return false
	}
	c.next[p] = seq + 1
	c.got[p].add(seq)
	return true
}

// verify compares what the producers enqueued with what the consumers (the
// drain included) took out. It returns the number of bad items — out of
// order, lost, or duplicated — and an error describing the first problem.
func verify(produced []tally, consumers ...*checker) (bad uint64, err error) {
	for _, c := range consumers {
		if c.violations > 0 {
			bad += c.violations
			if err == nil {
				err = fmt.Errorf("a consumer saw %d values out of per-producer order (duplicate or reorder)", c.violations)
			}
		}
	}
	for p, want := range produced {
		var got tally
		for _, c := range consumers {
			got.merge(c.got[p])
		}
		if got == want {
			continue
		}
		diff := int64(want.n) - int64(got.n)
		bad += uint64(max(diff, -diff, 1))
		if err == nil {
			err = fmt.Errorf("producer %d: enqueued %d items, dequeued and drained %d (or the same count of different items)", p, want.n, got.n)
		}
	}
	return bad, err
}
