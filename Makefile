# Build/test/verification lanes. `make ci` is the gate the parallel
# scheduler must keep green: vet + full tests + the race-detector lane.
GO ?= go

.PHONY: build test vet race bench bench-check benchdiff bench-figures serve-smoke recover-smoke yield-smoke cluster-smoke persist ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race lane: short mode keeps the seconds-long hybrid studies out, while
# the scheduler, cache, and parallel-study tests all still run under the
# detector. The service package runs in full — its queue, single-flight,
# and drain paths are the raciest code in the tree.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run 'Cancel|Fault|Leak' ./...
	$(GO) test -race ./internal/service
	$(GO) test -race ./internal/yield ./internal/adcsim ./internal/dsp
	$(GO) test -race ./internal/race
	$(GO) test -race -run 'Race|Surrogate' ./internal/synth ./internal/core ./internal/service

# Service integration smoke: boot adcsynd, run a study over HTTP with a
# cached rerun and a /metrics scrape, SIGTERM, assert clean drain — then
# the crash-recovery leg (see recover-smoke).
serve-smoke:
	./scripts/serve_smoke.sh

# Crash-recovery smoke only: boot with -state-dir, kill -9 mid-study,
# restart, assert the same job is recovered and completes.
recover-smoke:
	SMOKE_LEG=recover ./scripts/serve_smoke.sh

# Monte-Carlo yield smoke only: the same 200-draw mode:yield study on two
# daemons with different -workers must produce bit-identical results.
yield-smoke:
	SMOKE_LEG=yield ./scripts/serve_smoke.sh

# Sharded-cluster smoke: three nodes on loopback — consistent-hash
# routing with cluster-wide dedupe, a zero-evaluation peer-cache run on
# a cold node, bit-identical results vs a single-node daemon, and a
# kill -9 lease takeover that finishes the same job id on a survivor.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Persistence lane: journal replay, crash recovery, retention/leak, and
# cache-durability tests under the race detector.
persist:
	$(GO) test -race -run 'Recover|Retention|Retain|Journal|RetryAfter|Leak|CacheDisk' ./internal/service ./internal/synth

# Kernel/evaluator benchmark lane: the la factor/solve kernels (dense,
# sparse, and ordered), the compiled transfer-function evaluator, the
# sim analyses (with the full-Newton oracle's settle transient), the
# warm hybrid evaluator, and the end-to-end MDAC
# operating-point/settling/AC/full-study benchmarks, recorded as go-test
# JSON events in BENCH_kernels.json for before/after comparison. The
# benchfilter pipe strips run-volatile fields (timestamps, elapsed
# seconds, iteration counts) so the committed snapshot diffs cleanly.
bench:
	$(GO) test -json -bench=. -benchmem -run='^$$' \
		./internal/la ./internal/expr ./internal/sim ./internal/hybrid \
		| ./scripts/benchfilter.sh > BENCH_kernels.json
	$(GO) test -json -bench='^Benchmark(OP|TranSettle|ACSweep|Study13b|Study13bRacing)$$' -benchmem -run='^$$' . \
		| ./scripts/benchfilter.sh >> BENCH_kernels.json
	@grep -F 'ns/op' BENCH_kernels.json \
		| sed -E 's/.*"Test":"([^"]*)".*"Output":"(\1)? *([^"]*)\\n"\}/\1\t\3/; s/\\t/   /g'

# Benchmark-module check: bench/ is a separate Go module that the root
# `go build ./...` never compiles; vet it and run its short tests so an
# internal API change cannot silently break the served-path benchmark.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .

# Advisory perf gate: rerun the benchmark set and compare against the
# committed BENCH_kernels.json, warning on >10% ns/op regressions.
# Always exits 0 (shared CI boxes are noisy); BENCHDIFF_STRICT=1 makes
# regressions fatal for local use.
benchdiff:
	./scripts/benchdiff.sh

# Paper-figure benchmarks (root package only, human-readable).
bench-figures:
	$(GO) test -bench=. -benchmem -run='^$$' .

ci: vet test race persist bench-check serve-smoke cluster-smoke
