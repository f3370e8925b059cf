package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of adcsynd sees, measured with
// tracing off. BENCHMARK.json lists the same names, units and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"study_p50_s", "s"},
	{"study_tail_s", "s"},
	{"studies_per_s", "1/s"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics of single layers, from a traced run.
var perLayer = []metricDef{
	{"service.submit_s_p50", "s"},
	{"service.queue_wait_s_p50", "s"},
	{"service.queue_wait_s_p95", "s"},
	{"service.run_s_p50", "s"},
	{"service.fetch_s_p50", "s"},
	{"service.warm_p50_s", "s"},
	{"service.rss_peak_mb", "MB"},
	{"service.queue_depth_max", "count"},
	{"service.rejected", "count"},
	{"service.dedupe_hit_share", "share"},
	{"service.error_share", "share"},
	{"load.notify_s_p50", "s"},
	{"core.points_per_study", "count"},
	{"core.self_s_per_study", "s"},
	{"core.best_power_mw", "mW"},
	{"core.feasible_share", "share"},
	{"sched.busy_share", "share"},
	{"synth.point_s_p50", "s"},
	{"synth.evals_per_study", "count"},
	{"synth.self_share", "share"},
	{"synth.cache_hit_share", "share"},
	{"synth.cache_disk_hits", "count"},
	{"synth.point_feasible_share", "share"},
	{"hybrid.eval_s_mean", "s"},
	{"hybrid.evals_per_s", "1/s"},
	{"hybrid.dc_s_mean", "s"},
	{"hybrid.tf_s_mean", "s"},
	{"hybrid.tran_s_mean", "s"},
	{"hybrid.self_share", "share"},
	{"hybrid.allocs_per_eval", "count"},
	{"hybrid.bytes_per_eval", "B"},
	{"sim.factorizations_per_eval", "count"},
	{"sim.reused_solves_per_eval", "count"},
	{"sim.reuse_fallbacks", "count"},
	{"sim.ordered_fallbacks", "count"},
	{"sim.op_s_mean", "s"},
	{"sim.tran_s_mean", "s"},
	{"sim.newton_iters_per_op", "count"},
	{"la.factor_solve_ns", "ns"},
	{"race.pruned_per_study", "count"},
	{"race.promotions_per_study", "count"},
	{"race.rung_s_p50", "s"},
	{"race.evals_saved_share", "share"},
	{"yield.job_s", "s"},
	{"yield.draws_per_s", "1/s"},
	{"trace.overhead_share", "share"},
	{"trace.unaccounted_share", "share"},
}

// phase is one measured stretch of load against one daemon.
type phase struct {
	recs []*record // the workload's requests, in sequence order
	warm []*record // the cache-served repeats sent after the timed window
}

// latencies returns the sorted latencies in seconds of the completed
// records.
func latencies(recs []*record) []float64 {
	var out []float64
	for _, r := range recs {
		if r.ok() {
			out = append(out, r.latency().Seconds())
		}
	}
	sort.Float64s(out)
	return out
}

// all is every record of the phase, the warm pass last.
func (ph *phase) all() []*record {
	return append(append([]*record(nil), ph.recs...), ph.warm...)
}

type classLatency struct {
	class    string
	n        int
	p50, max float64
}

// classLatencies summarizes the completed records' latency per traffic
// class, in order of first appearance.
func classLatencies(ph *phase) []classLatency {
	var order []string
	by := map[string][]*record{}
	for _, r := range ph.all() {
		if _, ok := by[r.Class]; !ok {
			order = append(order, r.Class)
		}
		by[r.Class] = append(by[r.Class], r)
	}
	var out []classLatency
	for _, c := range order {
		lat := latencies(by[c])
		if len(lat) > 0 {
			out = append(out, classLatency{c, len(lat), nearestRank(lat, 0.5), lat[len(lat)-1]})
		}
	}
	return out
}

// qualityRecords are the fresh studies whose designs the quality
// metrics average: every study of a single-class workload, the hyb
// class of serve_mix.
func (ph *phase) qualityRecords() []*record {
	var out []*record
	for _, r := range ph.recs {
		if r.ok() && (r.Class == classStudy || r.Class == classHyb) {
			out = append(out, r)
		}
	}
	return out
}

// endToEndMetrics computes every end-to-end metric of an untraced phase.
func endToEndMetrics(ph *phase, setups []time.Duration, rssMB float64) map[string]float64 {
	lat := latencies(ph.recs)
	tailV, _ := tail(lat)
	var first, last time.Time
	for _, r := range ph.recs {
		if first.IsZero() || r.Sent.Before(first) {
			first = r.Sent
		}
		if r.ok() && r.FetchEnd.After(last) {
			last = r.FetchEnd
		}
	}
	setup := make([]float64, len(setups))
	for i, d := range setups {
		setup[i] = d.Seconds()
	}
	return map[string]float64{
		"setup_s":       median(setup),
		"study_p50_s":   nearestRank(lat, 0.5),
		"study_tail_s":  tailV,
		"studies_per_s": ratio(float64(len(lat)), last.Sub(first).Seconds()),
		"rss_mb":        rssMB,
	}
}

// classMeanPowerMW averages best-candidate power per resolution first,
// then across resolutions, so the mix of resolutions a timed run happens
// to complete does not move the figure.
func classMeanPowerMW(recs []*record) float64 {
	byBits := map[int][]float64{}
	for _, r := range recs {
		byBits[r.Req.Bits] = append(byBits[r.Req.Bits], r.BestPowerW*1e3)
	}
	var means []float64
	for _, ps := range byBits {
		means = append(means, mean(ps))
	}
	return mean(means)
}

// checkPhase applies the correctness gate: every job done, every repeat
// single-flighted onto its original (or onto a repeat of it admitted
// fresh) or served from the cache bit-identically, and the yield job
// sampled in full. It returns one line per violation.
func checkPhase(ph *phase) []string {
	all := ph.all()
	fresh := map[*record]map[string]bool{} // original → ids a repeat of it may join
	for _, r := range all {
		if o := r.Orig; o != nil && o.ok() && r.ok() && !r.Deduped {
			if fresh[o] == nil {
				fresh[o] = map[string]bool{o.ID: true}
			}
			fresh[o][r.ID] = true
		}
	}
	var bad []string
	for _, r := range all {
		id := fmt.Sprintf("%s #%d", r.Class, r.K)
		if r.problem != "" {
			bad = append(bad, id+": "+r.problem)
		}
		if !r.ok() {
			bad = append(bad, fmt.Sprintf("%s: %v", id, r.err))
			continue
		}
		if o := r.Orig; o != nil && o.ok() {
			if r.Deduped && r.ID != o.ID && !fresh[o][r.ID] {
				bad = append(bad, fmt.Sprintf("%s: deduped onto %s, neither the original %s nor one of its repeats", id, r.ID, o.ID))
			}
			if !r.Deduped && r.TotalEvals != 0 {
				bad = append(bad, fmt.Sprintf("%s: repeat of %s spent %d evaluations, want 0", id, o.ID, r.TotalEvals))
			}
			if r.Design != o.Design {
				bad = append(bad, fmt.Sprintf("%s: design differs from its original %s", id, o.ID))
			}
		}
		if r.Class == classYield && r.YieldDraws != r.Req.Draws {
			bad = append(bad, fmt.Sprintf("%s: %d yield draws, want %d", id, r.YieldDraws, r.Req.Draws))
		}
	}
	return bad
}

// digest is the SHA-256 over the {best, candidates} of the records it is
// given, in order.
func digest(recs []*record) string {
	h := sha256.New()
	for _, r := range recs {
		h.Write(r.Design[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestRecords are the records every run of a seed completes: the
// sequence's fixed prefix.
func digestRecords(ph *phase, prefix int) []*record {
	return ph.recs[:min(prefix, len(ph.recs))]
}
