package lcrq

import "lcrq/internal/instrument"

// Stats is a snapshot of per-handle operation statistics, mirroring the
// quantities reported in Tables 2 and 3 of the paper. It is the internal
// counter set itself: each field's json tag names the counter on every
// export (Prometheus lcrq_<name>_total, /statsz, expvar), and methods such
// as AtomicsPerOp and Add derive and combine snapshots.
type Stats = instrument.Counters
