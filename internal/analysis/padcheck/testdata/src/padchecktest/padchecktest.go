// Package padchecktest is a lint fixture: //lcrq:padded structs whose
// cache-line layout violates the private-line rule, plus correct layouts
// that must stay diagnostic-free.
package padchecktest

import (
	"sync/atomic"

	"lcrq/internal/atomic128"
	"lcrq/internal/pad"
)

// ring forgot the pad between its two contended words.
//
//lcrq:padded
type ring struct {
	head atomic.Uint64
	tail atomic.Uint64 // want `ring\.tail shares a 64-byte cache line with head`
}

// padded is the layout ring should have had.
//
//lcrq:padded
type padded struct {
	head atomic.Uint64
	_    pad.Pad
	tail atomic.Uint64
	_    pad.Pad
}

// mixed pairs a hot word with a cold gauge on one line; cold may never
// share with hot.
//
//lcrq:padded
type mixed struct {
	gauge atomic.Uint64 //lcrq:cold
	hot   atomic.Uint64 // want `mixed\.hot shares a 64-byte cache line with gauge`
	_     pad.Pad
}

// gauges shows that cold fields may share a line with each other, that
// ad-hoc byte-array padding is recognized, and that plain (non-atomic)
// fields are ignored.
//
//lcrq:padded
type gauges struct {
	hot atomic.Uint64
	_   [56]byte
	// cap is plain read-mostly configuration, invisible to the check.
	cap  uint64
	errs atomic.Uint64 //lcrq:cold
	drop atomic.Uint64 //lcrq:cold
}

// wide shows an atomic128 cell being treated as hot.
//
//lcrq:padded
type wide struct {
	cell atomic128.Uint128
	seq  atomic.Uint64 // want `wide\.seq shares a 64-byte cache line with cell`
	_    [40]byte
}

// stampSlot mirrors the item-trace stamp layout: the seqlock tag word is
// written by enqueuers and re-read by dequeuers, so it may not share a line
// with the array-neighbor words of an adjacent slot's tag — the fixture
// checks the within-struct rule (tag/id/ns are one slot's private line).
//
//lcrq:padded
type stampSlot struct {
	tag atomic.Uint64
	id  atomic.Uint64 // want `stampSlot\.id shares a 64-byte cache line with tag`
	ns  atomic.Int64  // want `stampSlot\.ns shares a 64-byte cache line with tag` `stampSlot\.ns shares a 64-byte cache line with id`
}

// stampSlotPadded is the compliant layout (the real traceStamp rides the
// ring's existing padding; when it cannot, this is the required shape).
//
//lcrq:padded
type stampSlotPadded struct {
	tag atomic.Uint64
	_   [56]byte
	id  atomic.Uint64 //lcrq:cold
	ns  atomic.Int64  //lcrq:cold
}

// adaptBoost is a queue-wide tunable with tallies: the boost word is loaded
// by every enqueue retry iteration, while the raise/decay tallies are
// touched only by a background tick and a metrics scrape — cold writers
// may not drag their line into the retry path's working set.
//
//lcrq:padded
type adaptBoost struct {
	boost  atomic.Uint64
	raises atomic.Uint64 // want `adaptBoost\.raises shares a 64-byte cache line with boost`
	decays atomic.Uint64 // want `adaptBoost\.decays shares a 64-byte cache line with boost` `adaptBoost\.decays shares a 64-byte cache line with raises`
}

// adaptBoostPadded is the required layout: the hot boost word on a private
// line, the cold tallies together behind it.
//
//lcrq:padded
type adaptBoostPadded struct {
	boost  atomic.Uint64
	_      pad.Pad
	raises atomic.Uint64 //lcrq:cold
	decays atomic.Uint64 //lcrq:cold
}

// notAStruct cannot carry the annotation at all.
//
//lcrq:padded
type notAStruct int // want `//lcrq:padded annotation on notAStruct, which is not a struct type`
