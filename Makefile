# Convenience targets for the LCRQ reproduction. Everything is plain
# `go` — the Makefile just names the common invocations.

GO ?= go

.PHONY: all build vet test race purego chaos soak fuzz bench batchbench examples reproduce check clean lint crossarch linearcheck modelcheck

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

# Cross-GOARCH compile checks: arm64 builds default to the portable SCQ
# ring, and the CAS2 fallback is only compiled there; 386 checks the
# 32-bit alignment rules align128 reasons about.
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

# Scaled-down version of the paper's full evaluation (see -paper for the
# real thing).
reproduce:
	$(GO) run ./cmd/reproduce -o report_scaled.md

# Linearizability campaign across every registered queue: 30 recorded
# histories per queue per run, each run with new operation mixes.
linearcheck:
	$(GO) test -run 'TestLinearizability$$' -count=10 -v ./internal/queues

# Bounded model checking of the CRQ protocol, then the mutation tests: each
# seeded protocol bug must still be caught, or the target fails.
modelcheck:
	$(GO) run ./cmd/modelcheck -max 2000000
	$(GO) test -run 'Mutation|Mutant|DecemberBug' -v ./internal/model

check: build vet lint crossarch test race purego chaos

clean:
	$(GO) clean ./...
