package main

import (
	"net/http"
	"time"

	"pipesyn/internal/sim"
	"pipesyn/internal/synth"
)

// layerInputs is what a traced phase measured besides its records'
// span trees: deltas of the daemon's own counters over the phase, and
// the replays run after it.
type layerInputs struct {
	ph       *phase
	events   map[string][]stamped
	depthMax int
	workers  int
	wall     time.Duration

	evalCount, evalSum float64 // /metrics evaluation histogram delta
	kernel             sim.KernelStats
	cache              synth.CacheStats

	replay               *replayOut // nil when the workload has no hybrid study
	laNS                 float64
	raceEvals, coldEvals int // hybrid_race: the same studies raced and not
	untracedP50          float64
}

// kernelDelta is b − a for the counters the benchmark reports.
func kernelDelta(a, b sim.KernelStats) sim.KernelStats {
	return sim.KernelStats{
		Factorizations:   b.Factorizations - a.Factorizations,
		ReusedSolves:     b.ReusedSolves - a.ReusedSolves,
		ReuseFallbacks:   b.ReuseFallbacks - a.ReuseFallbacks,
		OrderedFallbacks: b.OrderedFallbacks - a.OrderedFallbacks,
	}
}

// layerMetrics computes every per-layer metric of a traced phase.
// Metrics a workload does not exercise read 0.
func layerMetrics(in layerInputs) map[string]float64 {
	recs := in.ph.recs
	traces := jobTraces(recs, in.events)
	m := map[string]float64{}

	var submit, notify, fetch, queue, run, points, rungGaps []float64
	var sumLat, sumCov int64
	rejected, failed, dupSends, dupHits := 0, 0, 0, 0
	for _, r := range recs {
		if r.Code == http.StatusTooManyRequests || r.Code == http.StatusServiceUnavailable {
			rejected++
		}
		if r.Class == classDup {
			dupSends++
			if r.Deduped {
				dupHits++
			}
		}
		if !r.ok() {
			failed++
			continue
		}
		submit = append(submit, r.Submitted.Sub(r.Sent).Seconds())
		notify = append(notify, r.FetchStart.Sub(r.Finished).Seconds())
		fetch = append(fetch, r.FetchEnd.Sub(r.FetchStart).Seconds())
		lat, cov := covered(r)
		sumLat += lat
		sumCov += cov
	}

	var selfNS, busyNS, runNS int64
	nPoints, feasPoints := 0, 0
	var pruned, promotions, racing int
	for _, jt := range traces {
		r := jt.rec
		queue = append(queue, r.Started.Sub(r.Created).Seconds())
		run = append(run, r.Finished.Sub(r.Started).Seconds())
		runNS += jt.run.len()
		selfNS += selfTime(jt.run, jt.pointSpans())
		for _, p := range jt.points {
			busyNS += p.len()
			points = append(points, float64(p.len())/1e9)
			nPoints++
			if p.feasible {
				feasPoints++
			}
		}
		prev := jt.run.start
		for _, at := range jt.rungs {
			rungGaps = append(rungGaps, float64(at-prev)/1e9)
			prev = at
		}
		if r.Race != nil {
			racing++
			pruned += r.Race.Pruned
			promotions += r.Race.Promotions
		}
		if r.Class == classYield {
			m["yield.job_s"] = float64(jt.run.len()) / 1e9
			synthEnd := jt.run.start
			for _, p := range jt.points {
				if p.end > synthEnd {
					synthEnd = p.end
				}
			}
			m["yield.draws_per_s"] = ratio(float64(r.YieldDraws), float64(jt.run.end-synthEnd)/1e9)
		}
	}
	jobs := float64(len(traces))

	m["service.submit_s_p50"] = median(submit)
	m["service.queue_wait_s_p50"] = median(queue)
	m["service.queue_wait_s_p95"] = nearestRank(sortedCopy(queue), 0.95)
	m["service.run_s_p50"] = median(run)
	m["service.fetch_s_p50"] = median(fetch)
	m["service.warm_p50_s"] = nearestRank(latencies(in.ph.warm), 0.5)
	m["service.queue_depth_max"] = float64(in.depthMax)
	m["service.rejected"] = float64(rejected)
	m["service.dedupe_hit_share"] = ratio(float64(dupHits), float64(dupSends))
	m["service.error_share"] = ratio(float64(failed), float64(len(recs)))
	m["load.notify_s_p50"] = median(notify)

	m["core.points_per_study"] = ratio(float64(nPoints), jobs)
	m["core.self_s_per_study"] = ratio(float64(selfNS)/1e9, jobs)
	quality := in.ph.qualityRecords()
	feasible, evals := 0, 0
	for _, r := range quality {
		if r.Feasible {
			feasible++
		}
		evals += r.TotalEvals
	}
	m["core.best_power_mw"] = classMeanPowerMW(quality)
	m["core.feasible_share"] = ratio(float64(feasible), float64(len(quality)))
	m["sched.busy_share"] = ratio(float64(busyNS), float64(in.workers)*float64(runNS))

	m["synth.point_s_p50"] = median(points)
	m["synth.evals_per_study"] = ratio(float64(evals), float64(len(quality)))
	m["synth.self_share"] = 1 - ratio(in.evalSum, float64(busyNS)/1e9)
	m["synth.cache_hit_share"] = ratio(float64(in.cache.Hits), float64(in.cache.Hits+in.cache.Misses))
	m["synth.cache_disk_hits"] = float64(in.cache.DiskHits)
	m["synth.point_feasible_share"] = ratio(float64(feasPoints), float64(nPoints))

	m["hybrid.eval_s_mean"] = ratio(in.evalSum, in.evalCount)
	m["hybrid.evals_per_s"] = ratio(in.evalCount, in.wall.Seconds())
	if rp := in.replay; rp != nil {
		n := float64(rp.evals)
		m["hybrid.dc_s_mean"] = ratio(rp.dc.Seconds(), n)
		m["hybrid.tf_s_mean"] = ratio(rp.tf.Seconds(), n)
		m["hybrid.tran_s_mean"] = ratio(rp.tran.Seconds(), n)
		m["hybrid.self_share"] = 1 - ratio((rp.dc+rp.tf+rp.tran).Seconds(), rp.wall.Seconds())
		m["hybrid.allocs_per_eval"] = ratio(float64(rp.allocs), n)
		m["hybrid.bytes_per_eval"] = ratio(float64(rp.bytes), n)
		m["sim.op_s_mean"] = ratio(rp.opTime.Seconds(), float64(rp.ops))
		m["sim.tran_s_mean"] = ratio(rp.tranTime.Seconds(), float64(rp.trans))
		m["sim.newton_iters_per_op"] = ratio(float64(rp.newtonIter), float64(rp.ops))
	}
	m["sim.factorizations_per_eval"] = ratio(float64(in.kernel.Factorizations), in.evalCount)
	m["sim.reused_solves_per_eval"] = ratio(float64(in.kernel.ReusedSolves), in.evalCount)
	m["sim.reuse_fallbacks"] = float64(in.kernel.ReuseFallbacks)
	m["sim.ordered_fallbacks"] = float64(in.kernel.OrderedFallbacks)
	m["la.factor_solve_ns"] = in.laNS

	m["race.pruned_per_study"] = ratio(float64(pruned), float64(racing))
	m["race.promotions_per_study"] = ratio(float64(promotions), float64(racing))
	m["race.rung_s_p50"] = median(rungGaps)
	if in.coldEvals > 0 {
		m["race.evals_saved_share"] = 1 - float64(in.raceEvals)/float64(in.coldEvals)
	}

	m["trace.overhead_share"] = ratio(nearestRank(latencies(recs), 0.5)-in.untracedP50, in.untracedP50)
	m["trace.unaccounted_share"] = ratio(float64(sumLat-sumCov), float64(sumLat))
	return m
}
