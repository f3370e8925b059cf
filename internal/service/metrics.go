package service

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"pipesyn/internal/sim"
)

// evalBuckets are the upper bounds (seconds) of the evaluation-latency
// histogram. Equation-mode evaluations are tens of microseconds, hybrid
// ones are milliseconds, and a stalled simulation can take seconds, so
// the buckets span five decades.
var evalBuckets = []float64{
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3, 1, 2.5, 10,
}

// Metrics is the daemon's stdlib-only metrics registry: counters and a
// latency histogram maintained with atomics (the evaluation observer
// sits on the synthesis hot path), rendered in Prometheus text
// exposition format by WriteTo. Gauges — queue depth, jobs by state,
// pool load, cache traffic — are sampled from their owners at scrape
// time rather than mirrored here, so they can never drift.
type Metrics struct {
	// Admission outcomes of POST /v1/studies.
	JobsAccepted atomic.Int64 // new job admitted to the queue
	JobsDeduped  atomic.Int64 // single-flighted onto an in-flight job
	JobsRejected atomic.Int64 // queue full (429) or draining (503)

	// Terminal outcomes.
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64

	// Durability and retention outcomes.
	JobsRecovered      atomic.Int64 // re-enqueued from the journal after a restart
	JobsRecoveryFailed atomic.Int64 // journaled jobs finalized failed with *RecoveryError
	JobsEvicted        atomic.Int64 // terminal jobs dropped by the retention ring

	evalCount   atomic.Int64
	evalSumNS   atomic.Int64
	evalBuckets [16]atomic.Int64 // len(evalBuckets)+1 for +Inf

	// Monte-Carlo yield lane: per-draw verdict counters and the ENOB
	// histogram across every realization the daemon has sampled.
	yieldPass         atomic.Int64
	yieldFail         atomic.Int64
	yieldENOBSumMicro atomic.Int64     // Σ ENOB in micro-bits (atomics can't add floats)
	yieldENOB         [13]atomic.Int64 // len(yieldENOBBuckets)+1 for +Inf

	// Racing lane: rung/promotion/prune counters fed from race_rung
	// progress events, and the surrogate's proposal accounting fed from
	// completed studies.
	raceRungs          atomic.Int64
	racePromotions     atomic.Int64
	racePrunes         atomic.Int64
	surrogateProposals atomic.Int64
	surrogateAccepted  atomic.Int64
}

// yieldENOBBuckets are the upper bounds (effective bits) of the yield
// ENOB histogram: dense around the 8–14 bit sign-off range the pipeline
// designs land in.
var yieldENOBBuckets = []float64{2, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16}

// ObserveEval records one evaluation's wall-clock cost. Safe for
// concurrent use; two atomic adds plus a bucket add.
func (m *Metrics) ObserveEval(d time.Duration) {
	m.evalCount.Add(1)
	m.evalSumNS.Add(int64(d))
	sec := d.Seconds()
	for i, ub := range evalBuckets {
		if sec <= ub {
			m.evalBuckets[i].Add(1)
			return
		}
	}
	m.evalBuckets[len(evalBuckets)].Add(1)
}

// ObserveYieldDraw records one Monte-Carlo realization's verdict and
// ENOB. On the yield hot path, concurrent across draw workers; atomics
// only.
func (m *Metrics) ObserveYieldDraw(enob float64, pass bool) {
	if pass {
		m.yieldPass.Add(1)
	} else {
		m.yieldFail.Add(1)
	}
	m.yieldENOBSumMicro.Add(int64(enob * 1e6))
	for i, ub := range yieldENOBBuckets {
		if enob <= ub {
			m.yieldENOB[i].Add(1)
			return
		}
	}
	m.yieldENOB[len(yieldENOBBuckets)].Add(1)
}

// ObserveRaceRung records one completed racing rung's promotion
// decision, as carried by a race_rung progress event.
func (m *Metrics) ObserveRaceRung(promoted, pruned int) {
	m.raceRungs.Add(1)
	m.racePromotions.Add(int64(promoted))
	m.racePrunes.Add(int64(pruned))
}

// ObserveSurrogate folds one completed study's surrogate accounting in.
func (m *Metrics) ObserveSurrogate(proposals, accepted int) {
	m.surrogateProposals.Add(int64(proposals))
	m.surrogateAccepted.Add(int64(accepted))
}

// Snapshot is the point-in-time gauge set a scrape renders alongside the
// counters; the Manager assembles it from the queue, the job table, the
// scheduler pool, and the synthesis cache.
type Snapshot struct {
	QueueDepth    int
	QueueCapacity int
	JobsByState   map[State]int
	Retained      int // terminal jobs currently held by the retention ring
	PoolQueued    int64
	PoolInFlight  int64
	PoolWorkers   int
	CacheHits     int64
	CacheMisses   int64
	Journal       JournalStats    // zero value when no journal is configured
	Kernel        sim.KernelStats // process-wide simulation-kernel counters
	Draining      bool
}

// WriteTo renders the registry plus the gauge snapshot in Prometheus
// text exposition format (version 0.0.4).
func (m *Metrics) WriteTo(w io.Writer, snap Snapshot) {
	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("adcsynd_jobs_total", "Study jobs by admission or terminal event.")
	for _, kv := range []struct {
		label string
		v     int64
	}{
		{"accepted", m.JobsAccepted.Load()},
		{"deduped", m.JobsDeduped.Load()},
		{"rejected", m.JobsRejected.Load()},
		{"done", m.JobsDone.Load()},
		{"failed", m.JobsFailed.Load()},
		{"cancelled", m.JobsCancelled.Load()},
		{"recovered", m.JobsRecovered.Load()},
		{"recovery_failed", m.JobsRecoveryFailed.Load()},
		{"evicted", m.JobsEvicted.Load()},
	} {
		fmt.Fprintf(w, "adcsynd_jobs_total{event=%q} %d\n", kv.label, kv.v)
	}

	gauge("adcsynd_jobs", "Current jobs by state.")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "adcsynd_jobs{state=%q} %d\n", st, snap.JobsByState[st])
	}

	gauge("adcsynd_jobs_retained", "Terminal jobs held by the retention ring.")
	fmt.Fprintf(w, "adcsynd_jobs_retained %d\n", snap.Retained)

	gauge("adcsynd_queue_depth", "Jobs waiting in the admission queue.")
	fmt.Fprintf(w, "adcsynd_queue_depth %d\n", snap.QueueDepth)
	gauge("adcsynd_queue_capacity", "Admission queue capacity.")
	fmt.Fprintf(w, "adcsynd_queue_capacity %d\n", snap.QueueCapacity)

	gauge("adcsynd_pool_queued", "Synthesis tasks admitted to the worker pool but not yet running.")
	fmt.Fprintf(w, "adcsynd_pool_queued %d\n", snap.PoolQueued)
	gauge("adcsynd_pool_inflight", "Synthesis tasks executing on the worker pool right now.")
	fmt.Fprintf(w, "adcsynd_pool_inflight %d\n", snap.PoolInFlight)
	gauge("adcsynd_pool_workers", "Configured worker-pool concurrency bound.")
	fmt.Fprintf(w, "adcsynd_pool_workers %d\n", snap.PoolWorkers)

	counter("adcsynd_synth_cache_hits_total", "Content-addressed synthesis cache hits.")
	fmt.Fprintf(w, "adcsynd_synth_cache_hits_total %d\n", snap.CacheHits)
	counter("adcsynd_synth_cache_misses_total", "Content-addressed synthesis cache misses.")
	fmt.Fprintf(w, "adcsynd_synth_cache_misses_total %d\n", snap.CacheMisses)

	gauge("adcsynd_journal_records", "Journal records appended since the last compaction.")
	fmt.Fprintf(w, "adcsynd_journal_records %d\n", snap.Journal.Records)
	gauge("adcsynd_journal_bytes", "Journal file size on disk.")
	fmt.Fprintf(w, "adcsynd_journal_bytes %d\n", snap.Journal.Bytes)
	counter("adcsynd_journal_compactions_total", "Journal rewrites since the daemon started.")
	fmt.Fprintf(w, "adcsynd_journal_compactions_total %d\n", snap.Journal.Compactions)
	counter("adcsynd_journal_errors_total", "Journal append/fsync failures (durability degraded).")
	fmt.Fprintf(w, "adcsynd_journal_errors_total %d\n", snap.Journal.Errors)

	counter("adcsynd_kernel_factorizations_total", "Simulation-kernel numeric factorizations, by whether the Newton solve performed or reused one.")
	fmt.Fprintf(w, "adcsynd_kernel_factorizations_total{event=%q} %d\n", "performed", snap.Kernel.Factorizations)
	fmt.Fprintf(w, "adcsynd_kernel_factorizations_total{event=%q} %d\n", "reused", snap.Kernel.ReusedSolves)

	counter("adcsynd_kernel_reuse_fallbacks_total", "Newton-reuse divergences that re-ran the iteration with full Newton.")
	fmt.Fprintf(w, "adcsynd_kernel_reuse_fallbacks_total %d\n", snap.Kernel.ReuseFallbacks)

	counter("adcsynd_kernel_ordered_fallbacks_total", "Static-ordered factorizations that hit a zero pivot and dropped to partial pivoting.")
	fmt.Fprintf(w, "adcsynd_kernel_ordered_fallbacks_total %d\n", snap.Kernel.OrderedFallbacks)

	counter("adcsynd_yield_draws_total", "Monte-Carlo yield draws by pass/fail verdict.")
	fmt.Fprintf(w, "adcsynd_yield_draws_total{result=%q} %d\n", "pass", m.yieldPass.Load())
	fmt.Fprintf(w, "adcsynd_yield_draws_total{result=%q} %d\n", "fail", m.yieldFail.Load())

	fmt.Fprintf(w, "# HELP adcsynd_yield_enob Per-draw ENOB across Monte-Carlo yield realizations.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_yield_enob histogram\n")
	ycum := int64(0)
	for i, ub := range yieldENOBBuckets {
		ycum += m.yieldENOB[i].Load()
		fmt.Fprintf(w, "adcsynd_yield_enob_bucket{le=%q} %d\n", trimFloat(ub), ycum)
	}
	ycum += m.yieldENOB[len(yieldENOBBuckets)].Load()
	fmt.Fprintf(w, "adcsynd_yield_enob_bucket{le=\"+Inf\"} %d\n", ycum)
	fmt.Fprintf(w, "adcsynd_yield_enob_sum %g\n", float64(m.yieldENOBSumMicro.Load())/1e6)
	fmt.Fprintf(w, "adcsynd_yield_enob_count %d\n", ycum)

	counter("adcsynd_race_rungs_total", "Successive-halving rungs completed across racing studies.")
	fmt.Fprintf(w, "adcsynd_race_rungs_total %d\n", m.raceRungs.Load())
	counter("adcsynd_race_promotions_total", "Candidates promoted to a higher-fidelity rung.")
	fmt.Fprintf(w, "adcsynd_race_promotions_total %d\n", m.racePromotions.Load())
	counter("adcsynd_race_prunes_total", "Candidates dropped at a low-fidelity rung.")
	fmt.Fprintf(w, "adcsynd_race_prunes_total %d\n", m.racePrunes.Load())

	counter("adcsynd_surrogate_proposals_total", "Quadratic-surrogate sizing proposals, by whether the annealer accepted them.")
	fmt.Fprintf(w, "adcsynd_surrogate_proposals_total{result=%q} %d\n", "proposed", m.surrogateProposals.Load())
	fmt.Fprintf(w, "adcsynd_surrogate_proposals_total{result=%q} %d\n", "accepted", m.surrogateAccepted.Load())

	gauge("adcsynd_draining", "1 while the daemon is draining for shutdown.")
	d := 0
	if snap.Draining {
		d = 1
	}
	fmt.Fprintf(w, "adcsynd_draining %d\n", d)

	fmt.Fprintf(w, "# HELP adcsynd_eval_duration_seconds Wall-clock cost of one synthesis evaluation.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_eval_duration_seconds histogram\n")
	cum := int64(0)
	for i, ub := range evalBuckets {
		cum += m.evalBuckets[i].Load()
		fmt.Fprintf(w, "adcsynd_eval_duration_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.evalBuckets[len(evalBuckets)].Load()
	fmt.Fprintf(w, "adcsynd_eval_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "adcsynd_eval_duration_seconds_sum %g\n", time.Duration(m.evalSumNS.Load()).Seconds())
	fmt.Fprintf(w, "adcsynd_eval_duration_seconds_count %d\n", m.evalCount.Load())
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
