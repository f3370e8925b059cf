#!/bin/sh
# CI gate, Makefile-free form: static checks, full tests, then the race
# lane that continuously exercises the parallel synthesis scheduler.
set -eux

go vet ./...
go build ./...
go test ./...
go test -race -short ./...
# Robustness lane: the cancellation, fault-injection, and goroutine-leak
# tests under the race detector (stalled evaluators, injected panics,
# deadline teardowns across the scheduler/synthesis/core stack).
go test -race -run 'Cancel|Fault|Leak' ./...
# Service lane: the full adcsynd job-manager/HTTP suite under the race
# detector (queue backpressure, single-flight dedup, NDJSON streaming,
# drain).
go test -race ./internal/service
# Persistence lane: journal replay, crash recovery, the terminal-job
# retention/leak regression (500-job soak), and the disk-cache
# durability tests under the race detector.
go test -race -run 'Recover|Retention|Retain|Journal|RetryAfter|Leak|CacheDisk' ./internal/service ./internal/synth
# Yield lane: the Monte-Carlo draw pool, the behavioral simulator, and
# the spectral metrics under the race detector — the determinism contract
# (per-draw seeds, order-independent mismatch streams) is what the
# concurrent draws lean on.
go test -race ./internal/yield ./internal/adcsim ./internal/dsp
# Cluster lane: the consistent-hash ring and the 3-node in-process
# cluster tests (routing/dedupe, peer cache fill, lease takeover, hop
# guard) under the race detector — the membership, replication, and
# proxy paths are all concurrent by construction.
go test -race ./internal/cluster
# End-to-end daemon smoke, all legs: boot → study over HTTP → cached
# rerun → /metrics → SIGTERM drain; the kill -9 crash-recovery leg (same
# -state-dir restart must finish the interrupted study); and the yield
# leg (200-draw mode:yield study bit-identical across daemons with
# different -workers, yield counters on /metrics).
./scripts/serve_smoke.sh
# Sharded-cluster smoke: three loopback nodes — cluster-wide dedupe via
# ring routing, a zero-evaluation peer-cache run on a cold node,
# bit-identical results vs a single-node daemon, and a kill -9 lease
# takeover completing the same job id on a survivor.
./scripts/cluster_smoke.sh
# Racing lane: the successive-halving scheduler (plan/promotion ranking),
# the quadratic-surrogate proposal loop, and the worker-count
# bit-identity tests at the synthesis, study, and service levels under
# the race detector — rung promotion is a cross-worker reduction, so the
# determinism contract and the data-race check are the same test.
go test -race ./internal/race
go test -race -run 'Race|Surrogate' ./internal/synth ./internal/core ./internal/service
# Sparse-solver lane: the sparse/dense bit-exactness, symbolic-coverage,
# reuse-vs-full-Newton tolerance, ordered-pivot equivalence, and
# warm-kernel isolation (rebound kernel and evaluator bitwise equal to a
# cold compile) tests under the race detector — the correctness
# contract of the fast path.
go test -race -run 'MatchesDense|SymbolicCovers|NewtonReuse|BitIdentical|Batch|OrderedPivot|Warm' \
    ./internal/la ./internal/sim ./internal/hybrid ./internal/synth
# Benchmark smoke: one iteration of the kernel and end-to-end benchmarks
# (including the warm evaluator and full-study paths) so perf-path
# regressions (panics, singular matrices) surface in CI without paying
# for a full measurement run.
go test -bench=. -benchtime=1x -run='^$' ./internal/la ./internal/expr ./internal/sim ./internal/hybrid
go test -bench='^Benchmark(OP|TranSettle|ACSweep|Study13b|Study13bRacing)$' -benchtime=1x -run='^$' .
# Benchmark-module lane: bench/ is its own Go module, so the root
# `go build ./...` never compiles it; vet and short-test it here so an
# internal API change cannot silently break the served-path benchmark.
(cd bench && go vet . && go test -short .)
# Advisory perf diff against the committed BENCH_kernels.json snapshot:
# prints >10% ns/op regressions but never fails the gate (shared CI
# boxes are noisy; BENCHDIFF_STRICT=1 makes it fatal locally).
BENCHDIFF_BENCHTIME=1x ./scripts/benchdiff.sh || true
