# Convenience targets for the LCRQ reproduction. Everything is plain
# `go` — the Makefile just names the common invocations.

GO ?= go

.PHONY: all build vet test race purego chaos soak fuzz bench batchbench oversubbench ringbench examples reproduce check clean lint crossarch e2e e2e-baseline

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lcrqlint: the repo's own go/analysis suite — nine analyzers: the v1
# per-word checks (align128, atomiconly, padcheck, hotpath, statsmirror;
# DESIGN.md §10) and the v2 protocol checks (seqlockcheck, singlewriter,
# publication, chaosreg; DESIGN.md §15). Runs standalone over the non-test
# tree, then again as a go vet -vettool so test files are covered too.
lint:
	$(GO) run ./cmd/lcrqlint ./...
	$(GO) build -o $(CURDIR)/bin/lcrqlint ./cmd/lcrqlint
	$(GO) vet -vettool=$(CURDIR)/bin/lcrqlint ./...

# Cross-GOARCH compile checks: arm64 exercises the portable CAS2 fallback
# path, 386 the 32-bit alignment rules align128 reasons about.
crossarch:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Exercise the portable CAS2 emulation even on amd64.
purego:
	$(GO) test -tags purego ./...

# Fault-injection suite: arms every internal/chaos injection point under
# the race detector and re-runs the linearizability checker under faults.
chaos:
	$(GO) test -race -tags=chaos ./...

# Timed governance soak: bounded queue + watchdog + stalling consumer
# under every injection point and the race detector, budgets asserted
# continuously. Override the duration with SOAK_SECONDS.
SOAK_SECONDS ?= 60
soak:
	LCRQ_SOAK_SECONDS=$(SOAK_SECONDS) $(GO) test -race -tags=chaos -run TestSoak -v -timeout=10m .

# Short fuzzing pass over the fuzz targets.
fuzz:
	$(GO) test -fuzz FuzzQueueModel -fuzztime 30s .
	$(GO) test -fuzz FuzzTypedModel -fuzztime 30s .
	$(GO) test -fuzz FuzzPacked32Model -fuzztime 30s .
	$(GO) test -fuzz FuzzCloseDrain -fuzztime 30s .
	$(GO) test -fuzz FuzzBoundedCapacity -fuzztime 30s .

bench:
	$(GO) test -bench=. -benchmem ./...

# Batched-operation study: throughput and F&A amortization for
# EnqueueBatch/DequeueBatch block sizes 1..64, with a JSON sidecar.
batchbench:
	$(GO) run ./cmd/qbench -batch 64 -metrics BENCH_batch.json

# Oversubscription study: fixed spin constants vs the adaptive contention
# controller at 1x/2x/4x/8x GOMAXPROCS, interleaved paired runs, with a
# JSON sidecar (the committed baseline is BENCH_contention.json).
oversubbench:
	$(GO) run ./cmd/qbench -oversub 8 -pairs 50000 -runs 24 -metrics BENCH_contention.json

# Ring-engine study: the portable SCQ ring vs the CAS2 ring under the
# paper's pairwise workload, with the SCQ/LCRQ throughput ratio printed and
# a JSON sidecar (the committed baseline is BENCH_ring.json).
ringbench:
	$(GO) run ./cmd/qbench -ring scq,lcrq -threads 1,2,4,8 -pairs 50000 -runs 8 -metrics BENCH_ring.json

# End-to-end queue-as-a-service check: build qserve and qload, run the
# sweep with all three fault scenarios (killed connections, slow-consumer
# shed/recover, mid-traffic SIGTERM drain), and gate enqueue p99 against
# the committed trajectory in BENCH_e2e.json (>2x regression fails).
# Override the per-cell load duration with E2E_DURATION.
E2E_DURATION ?= 500ms
e2e:
	$(GO) build -o $(CURDIR)/bin/qserve ./cmd/qserve
	$(GO) build -o $(CURDIR)/bin/qload ./cmd/qload
	$(CURDIR)/bin/qload -qserve $(CURDIR)/bin/qserve -duration $(E2E_DURATION) -baseline BENCH_e2e.json -out BENCH_e2e_run.json

# Regenerate the committed baseline artifact (run on a quiet machine).
e2e-baseline:
	$(GO) build -o $(CURDIR)/bin/qserve ./cmd/qserve
	$(GO) build -o $(CURDIR)/bin/qload ./cmd/qload
	$(CURDIR)/bin/qload -qserve $(CURDIR)/bin/qserve -duration 2s -out BENCH_e2e.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/taskpool
	$(GO) run ./examples/instrumentation
	$(GO) run ./examples/portable

# Scaled-down version of the paper's full evaluation (see -paper for the
# real thing).
reproduce:
	$(GO) run ./cmd/reproduce -o report_scaled.md

# Linearizability campaign across every registered queue.
linearcheck:
	$(GO) run ./cmd/linearcheck -rounds 300 -v

# Bounded model checking of the CRQ protocol.
modelcheck:
	$(GO) run ./cmd/modelcheck -max 2000000
	$(GO) run ./cmd/modelcheck -mutate empty -ops 2 || true
	$(GO) run ./cmd/modelcheck -mutate idx -ops 2 || true

check: build vet lint crossarch test race purego chaos e2e

clean:
	$(GO) clean ./...
