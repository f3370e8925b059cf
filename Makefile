# Build/test/verification targets. Every CI lane is defined once, in
# ci.sh; the lane targets below run one lane each through it, and `make
# ci` runs them all — the gate the parallel scheduler must keep green.
GO ?= go
export GO

.PHONY: build test vet race bench bench-check benchdiff bench-figures serve-smoke recover-smoke yield-smoke cluster-smoke persist ci

build:
	$(GO) build ./...

# Each lane target runs that lane of ci.sh: vet (go vet plus the gofmt
# gate), test, race (the short race sweep plus the robustness, service,
# yield, cluster, racing and sparse-solver lanes), persist (journal,
# recovery and cache durability under the race detector), serve-smoke
# (every daemon leg), cluster-smoke (three loopback nodes) and
# bench-check (the bench/ module, which the root `go build ./...` never
# compiles). See ci.sh for each lane's commands.
test vet race persist serve-smoke cluster-smoke bench-check:
	./ci.sh $@

ci:
	./ci.sh

# Crash-recovery smoke only: boot with -state-dir, kill -9 mid-study,
# restart, assert the same job is recovered and completes.
recover-smoke:
	SMOKE_LEG=recover ./scripts/serve_smoke.sh

# Monte-Carlo yield smoke only: the same 200-draw mode:yield study on two
# daemons with different -workers must produce bit-identical results.
yield-smoke:
	SMOKE_LEG=yield ./scripts/serve_smoke.sh

# Kernel/evaluator benchmark lane: the la factor/solve kernels (dense,
# sparse, and ordered), the compiled transfer-function evaluator, the
# sim analyses (with the full-Newton oracle's settle transient), the
# warm hybrid evaluator, and the end-to-end MDAC
# operating-point/settling/AC/full-study benchmarks, five samples each
# (-count 5, so benchdiff can compare medians), recorded as go-test JSON
# events in BENCH_kernels.json for before/after comparison. The
# benchfilter pipe strips run-volatile fields (timestamps, elapsed
# seconds, iteration counts) so the committed snapshot diffs cleanly;
# the last step prints each benchmark's median.
bench:
	$(GO) test -json -bench=. -benchmem -run='^$$' -count 5 \
		./internal/la ./internal/expr ./internal/sim ./internal/hybrid \
		| ./scripts/benchfilter.sh > BENCH_kernels.json
	$(GO) test -json -bench='^Benchmark(OP|TranSettle|ACSweep|Study13b|Study13bRacing)$$' -benchmem -run='^$$' -count 5 . \
		| ./scripts/benchfilter.sh >> BENCH_kernels.json
	@./scripts/benchmedians.sh BENCH_kernels.json

# Advisory perf gate: rerun the benchmark set (-count 5) and compare each
# benchmark's median against the committed BENCH_kernels.json median,
# warning on >10% ns/op regressions.
# Always exits 0 (shared CI boxes are noisy); BENCHDIFF_STRICT=1 makes
# regressions fatal for local use.
benchdiff:
	./scripts/benchdiff.sh

# Paper-figure benchmarks (root package only, human-readable).
bench-figures:
	$(GO) test -bench=. -benchmem -run='^$$' .

