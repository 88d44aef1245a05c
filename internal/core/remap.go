package core

// cacheRemap is the cache_remap of Nikolaev's SCQ (PAPERS.md): a bijective
// rotate-left by rot within the low bits of a ring index. The index's low
// bits move up to select the slot's aligned group of 2^rot slots, so
// consecutive indices — the ones F&A hands to concurrent threads — always
// fall in different groups, 2^rot slots apart except where the low bits
// wrap. A dense slot array thereby keeps neighbouring indices off each
// other's cache lines, as padding every slot would, without the padding's
// memory. Both ring engines address their slot arrays through it: the CAS2
// ring's 16-byte cells with rot 3 (8 cells = one false-sharing range), the
// SCQ's 8-byte entries with rot 3 (8 entries = one cache line).
//
// A ring of at most 2^rot slots fits in the range anyway and gets the
// identity, as does rot = 0.
type cacheRemap struct {
	mask uint64 // 2^bits − 1
	rot  uint   // left rotation; 0 = identity
	back uint   // bits − rot: the right shift that wraps the high bits
}

func newCacheRemap(bits, rot uint) cacheRemap {
	if bits <= rot {
		rot = 0
	}
	// With rot = 0, back = bits shifts every in-range position to 0, so
	// slot needs no identity branch.
	return cacheRemap{mask: 1<<bits - 1, rot: rot, back: bits - rot}
}

// slot returns the array slot of ring index i (taken mod 2^bits).
//
//lcrq:hotpath
func (m cacheRemap) slot(i uint64) uint64 {
	pos := i & m.mask
	return (pos<<m.rot | pos>>m.back) & m.mask
}
