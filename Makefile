# Convenience targets for the LCRQ reproduction. Everything is plain
# `go` — the Makefile just names the common invocations.

GO ?= go

.PHONY: all build vet test race purego chaos soak fuzz bench batchbench examples reproduce check clean lint crossarch

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lcrqlint: the repo's own go/analysis suite — eight analyzers: the v1
# per-word checks (align128, atomiconly, padcheck, hotpath; DESIGN.md §10)
# and the v2 protocol checks (seqlockcheck, singlewriter, publication, and
# chaosreg, which also checks that enum-indexed name tables are complete;
# DESIGN.md §15).
# Runs standalone over the non-test tree, then again as a go vet -vettool
# so test files are covered too.
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
	$(GO) test -fuzz FuzzQueueModel -fuzztime 30s -fuzzminimizetime 1s .
	$(GO) test -fuzz FuzzTypedModel -fuzztime 30s -fuzzminimizetime 1s .
	$(GO) test -fuzz FuzzPacked32Model -fuzztime 30s -fuzzminimizetime 1s .
	$(GO) test -fuzz FuzzCloseDrain -fuzztime 30s -fuzzminimizetime 1s .
	$(GO) test -fuzz FuzzBoundedCapacity -fuzztime 30s -fuzzminimizetime 1s .

bench:
	$(GO) test -bench=. -benchmem ./...

# Batched-operation study: throughput and F&A amortization for
# EnqueueBatch/DequeueBatch block sizes 1..64.
batchbench:
	$(GO) run ./cmd/qbench -batch 64

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

check: build vet lint crossarch test race purego chaos

clean:
	$(GO) clean ./...
