# One-command verify recipe, locally and in CI. Targets mirror the CI
# jobs (.github/workflows/ci.yml) so "it passed make" and "it passed CI"
# mean the same thing.

GO      ?= go
GOFMT   ?= gofmt
FUZZTIME ?= 10s

.PHONY: all build test lint fuzz-smoke bench bench-alloc bench-replay bench-mmu bench-replica

all: build lint test

build:
	$(GO) build ./...

# test runs the tier-1 suite under the race detector, exactly as CI does.
test:
	$(GO) test -race ./...

# lint is the merge gate: gofmt, go vet and the repo's own analyzer
# suite (cmd/ptlint). The gofmt step fails on any file `gofmt -l`
# lists; ptlint exits non-zero on any unsuppressed finding; -stats
# reports per-analyzer wall time on stderr.
lint:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/ptlint -stats ./...

# fuzz-smoke gives each fuzz target a short random walk on top of the
# checked-in corpora; FUZZTIME=1m for a deeper local run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAddrFields -fuzztime $(FUZZTIME) ./internal/addr/
	$(GO) test -run '^$$' -fuzz FuzzPTERoundTrip -fuzztime $(FUZZTIME) ./internal/pte/
	$(GO) test -run '^$$' -fuzz FuzzArenaOps -fuzztime $(FUZZTIME) ./internal/ptalloc/
	$(GO) test -run '^$$' -fuzz FuzzTLBIndex -fuzztime $(FUZZTIME) ./internal/tlb/
	$(GO) test -run '^$$' -fuzz FuzzChurnOps -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzReplicaOps -fuzztime $(FUZZTIME) ./internal/service/

# bench runs every benchmark once — a compile-and-smoke pass, not a
# measurement; use -benchtime with the go tool directly for numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-alloc measures the arena storage layer — fresh vs pooled table
# builds and the walk-path line spans — and snapshots the result as
# BENCH_alloc.json (via cmd/benchjson, benchstat-compatible input).
# Regenerate after storage-layer changes and commit the diff.
bench-alloc:
	{ $(GO) test -run '^$$' -bench 'BenchmarkBuild(Fresh|Pooled)|BenchmarkFigure9RowPooled' -benchmem -count 3 ./internal/sim/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkSpan -benchmem -count 3 ./internal/memcost/ ; } \
	| $(GO) run ./cmd/benchjson > BENCH_alloc.json

# bench-replay measures the reference-replay fast path — indexed vs
# linear-scan TLB lookup, buffered zero-alloc trace generation, the
# end-to-end Figure 11a replay at three TLB sizes, Figure 11d's
# block-prefetch path, and the root package's Figure 11a and 11d rows
# over every traced workload — and snapshots the result as
# BENCH_replay.json. The indexed/scan pairs share every other line of
# code, so the ratio isolates the index. Regenerate after TLB or replay
# changes and commit the diff.
bench-replay:
	{ $(GO) test -run '^$$' -bench BenchmarkAccess -benchmem -count 3 ./internal/tlb/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkGeneratorFill -benchmem -count 3 ./internal/trace/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkFigure11(Replay|Prefetch)' -benchmem -count 3 ./internal/sim/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkFigure11(a|d)$$' -benchmem -count 3 . ; } \
	| $(GO) run ./cmd/benchjson > BENCH_replay.json

# bench-mmu measures the composable translation hierarchy — the
# Hierarchy dispatch micro-costs (L1 hit bare vs behind the full
# L1+L2+PWC chain, and the miss path through filter and fill) and the
# end-to-end Figure 11a replay under each -mmu pipeline — and snapshots
# the result as BENCH_mmu.json. flat vs
# Figure11Replay/e64/indexed bounds the cost of the abstraction when
# unconfigured. Regenerate after mmu or replay changes and commit the
# diff.
bench-mmu:
	{ $(GO) test -run '^$$' -bench BenchmarkHierarchy -benchmem -count 3 ./internal/mmu/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkFigure11Hierarchy -benchmem -count 3 ./internal/sim/ ; } \
	| $(GO) run ./cmd/benchjson > BENCH_mmu.json

# bench-replica measures the replicated page-table service — read
# scaling across goroutines × replication factor, on a cache-hit and a
# cache-miss working set (with the plain single-table Service as the
# factor-1 baseline), and the broadcast write cost that climbs with the
# factor — and snapshots the result as BENCH_replica.json. The
# read-mostly claim lives in the Miss rows: R=8/g8 vs R=1/g8 is the
# contention the replication removes — on a multi-core host; with one
# CPU the read curves collapse to serial cost (the write curve's linear
# climb with R shows regardless). The snapshot's context records the
# GOMAXPROCS it ran with. Regenerate after service or replication
# changes and commit the diff.
bench-replica:
	$(GO) test -run '^$$' -bench 'BenchmarkReplicatedRead(Hit|Miss)|BenchmarkSingleServiceRead(Hit|Miss)|BenchmarkReplicatedWrite' \
	  -benchmem -count 3 ./internal/service/ \
	| $(GO) run ./cmd/benchjson > BENCH_replica.json
