// Package analysis is lcrqlint's analyzer suite: the mechanical checks for
// the concurrency invariants this repository otherwise enforces only by
// convention. See DESIGN.md §10 and §15 for each invariant, its paper
// rationale, and the //lcrq: annotation syntax the analyzers consume.
//
// The suite has two generations. v1 (align128, atomiconly, padcheck,
// hotpath) checks per-word invariants: alignment of CAS2 cells,
// atomic-only access to shared words, false-sharing pads, hot-path
// hygiene. v2 (seqlockcheck, singlewriter, publication, chaosreg) checks
// multi-statement protocols: the seqlock version-word bracket, the
// single-writer ownership discipline, construct-then-publish windows, and
// the name registries — complete enum-indexed name tables and chaos
// injection points named and used as registered.
//
// The analyzers are written against the (vendored) golang.org/x/tools
// go/analysis API — see internal/lint/analysis — and run both standalone
// (go run ./cmd/lcrqlint ./...) and under go vet -vettool.
package analysis

import (
	"lcrq/internal/analysis/align128"
	"lcrq/internal/analysis/atomiconly"
	"lcrq/internal/analysis/chaosreg"
	"lcrq/internal/analysis/hotpath"
	"lcrq/internal/analysis/padcheck"
	"lcrq/internal/analysis/publication"
	"lcrq/internal/analysis/seqlockcheck"
	"lcrq/internal/analysis/singlewriter"
	"lcrq/internal/lint/analysis"
)

// All returns the full lcrqlint suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		align128.Analyzer,
		atomiconly.Analyzer,
		padcheck.Analyzer,
		hotpath.Analyzer,
		seqlockcheck.Analyzer,
		singlewriter.Analyzer,
		publication.Analyzer,
		chaosreg.Analyzer,
	}
}
