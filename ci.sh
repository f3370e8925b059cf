#!/bin/sh
# CI gate: the one definition of every verification lane. `sh ci.sh` runs
# all lanes in order; `sh ci.sh race persist` runs only the named ones.
# The Makefile's lane targets (`make vet`, `make race`, ..., `make ci`)
# call this script, so each lane is written here and nowhere else.
set -eux

GO=${GO:-go}

# Static checks: go vet, plus a formatting gate over tracked files only,
# so the gitignored benchmark build cache (.bench_build/) stays out of it.
lane_vet() {
    "$GO" vet ./...
    test -z "$(gofmt -l $(git ls-files '*.go'))"
}

# Tier-1. `go test .` includes the reachability contract
# (reach_test.go): it builds every command, example and pipebench, fails
# on a non-test function none of them links, and runs every example. It
# also runs the field contract (fieldreach_test.go), which fails on an
# exported struct field under internal/ that no non-test code sets.
lane_test() {
    "$GO" build ./...
    "$GO" test ./...
}

lane_race() {
    # Short mode keeps the seconds-long hybrid studies out, while the
    # scheduler, cache, and parallel-study tests all still run under the
    # detector. It also skips both contracts (reachability and fields),
    # which race nothing and run in the test lane.
    "$GO" test -race -short ./...
    # Robustness lane: the cancellation, fault-injection, and goroutine-leak
    # tests under the race detector (stalled evaluators, injected panics,
    # deadline teardowns across the scheduler/synthesis/core stack).
    "$GO" test -race -run 'Cancel|Fault|Leak' ./...
    # Scheduler lane: the DAG runner's looping workers (no idle slot,
    # seeded random DAGs on 1-8 workers, drains, panics) ten times over
    # under the race detector, since each run interleaves differently.
    "$GO" test -race -count=10 -run 'Run' ./internal/sched
    # Service lane: the full adcsynd job-manager/HTTP suite under the race
    # detector (queue backpressure, single-flight dedup, NDJSON streaming,
    # drain) — the raciest code in the tree.
    "$GO" test -race ./internal/service
    # Yield lane: the Monte-Carlo draw pool, the behavioral simulator, and
    # the spectral metrics under the race detector — the determinism
    # contract (per-draw seeds, order-independent mismatch streams) is what
    # the concurrent draws lean on.
    "$GO" test -race ./internal/yield ./internal/adcsim ./internal/dsp
    # Cluster lane: the consistent-hash ring and the 3-node in-process
    # cluster tests (routing/dedupe, peer cache fill, lease takeover, hop
    # guard) under the race detector — the membership, replication, and
    # proxy paths are all concurrent by construction.
    "$GO" test -race ./internal/cluster
    # Racing lane: the successive-halving scheduler (plan/promotion
    # ranking), the quadratic-surrogate proposal loop, and the worker-count
    # bit-identity tests at the synthesis, study, and service levels under
    # the race detector — rung promotion is a cross-worker reduction, so
    # the determinism contract and the data-race check are the same test.
    # Every study flow runs the same rung loop (the uniform and retarget
    # flows are its one-rung plan), so all of internal/core runs here.
    "$GO" test -race ./internal/race ./internal/core
    "$GO" test -race -run 'Race|Surrogate' ./internal/synth ./internal/service
    # Sparse-solver lane: the sparse/dense bit-exactness, symbolic-coverage,
    # reuse-vs-full-Newton tolerance, ordered-pivot equivalence,
    # warm-kernel isolation (rebound kernel and evaluator bitwise equal to
    # a cold compile), and shared loop transfer function (eight evaluators
    # racing to its first compile, bitwise equal to serial), transient
    # Newton cycle-cut (bitwise equal to running every loop to MaxNewton),
    # trapezoidal device-cap order, and root-found loop crossover tests
    # under the race detector — the correctness contract of the fast path.
    "$GO" test -race -run 'MatchesDense|SymbolicCovers|NewtonReuse|BitIdentical|Batch|OrderedPivot|Warm|SharedLoopTF|CycleCut|DeviceCapSecondOrder|CrossoverRootFind' \
        ./internal/la ./internal/sim ./internal/hybrid ./internal/synth
}

# Persistence lane: journal replay, crash recovery, the terminal-job
# retention/leak regression (500-job soak), and the disk-cache durability
# and gob-decode tests (with FuzzDecodeResult's seeds) under the race
# detector.
lane_persist() {
    "$GO" test -race -run 'Recover|Retention|Retain|Journal|RetryAfter|Leak|CacheDisk|DecodeResult' ./internal/service ./internal/synth
}

# End-to-end daemon smoke, all legs: boot → study over HTTP → cached
# rerun → /metrics → SIGTERM drain; the kill -9 crash-recovery leg (same
# -state-dir restart must finish the interrupted study); and the yield
# leg (200-draw mode:yield study bit-identical across daemons with
# different -workers, yield counters on /metrics).
lane_serve_smoke() {
    ./scripts/serve_smoke.sh
}

# Sharded-cluster smoke: three loopback nodes — cluster-wide dedupe via
# ring routing, a zero-evaluation peer-cache run on a cold node,
# bit-identical results vs a single-node daemon, and a kill -9 lease
# takeover completing the same job id on a survivor.
lane_cluster_smoke() {
    ./scripts/cluster_smoke.sh
}

# Benchmark smoke: one iteration of the kernel and end-to-end benchmarks
# (including the warm evaluator and full-study paths) so perf-path
# regressions (panics, singular matrices) surface in CI without paying
# for a full measurement run.
lane_bench_smoke() {
    "$GO" test -bench=. -benchtime=1x -run='^$' ./internal/la ./internal/expr ./internal/sim ./internal/hybrid
    "$GO" test -bench='^Benchmark(OP|TranSettle|ACSweep|Study13b|Study13bRacing)$' -benchtime=1x -run='^$' .
}

# Benchmark-module lane: bench/ is its own Go module, so the root
# `go build ./...` never compiles it; vet and short-test it here so an
# internal API change cannot silently break the served-path benchmark.
# The test lane's reachability contract builds pipebench too, so such a
# break already fails tier-1; this lane adds vet and bench/'s own tests.
lane_bench_check() {
    (cd bench && "$GO" vet . && "$GO" test -short .)
}

# Advisory perf diff against the committed BENCH_kernels.json snapshot:
# prints >10% regressions of each benchmark's median ns/op over five 1x
# samples but never fails the gate (shared CI boxes are noisy;
# BENCHDIFF_STRICT=1 makes it fatal locally).
lane_benchdiff() {
    BENCHDIFF_BENCHTIME=1x ./scripts/benchdiff.sh || true
}

if [ $# -eq 0 ]; then
    set -- vet test race persist serve-smoke cluster-smoke bench-smoke bench-check benchdiff
fi
for lane in "$@"; do
    "lane_$(echo "$lane" | tr - _)"
done
