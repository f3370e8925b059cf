// End-to-end kernel benchmarks on an MDAC-sized circuit: the hold and
// loop netlists of a real pipeline stage (the same circuits the hybrid
// evaluator solves on every synthesis iteration). These are the numbers
// the allocation-free kernel path is accountable to; `make bench` runs
// them together with the per-package kernel benchmarks and writes
// BENCH_kernels.json.
package pipesyn_test

import (
	"context"
	"testing"

	"pipesyn/internal/core"
	"pipesyn/internal/enum"
	"pipesyn/internal/mdac"
	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/service"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/synth"
)

// benchStage builds a representative second-stage MDAC of a 12-bit
// 40 MSPS pipeline with the designer-equation initial sizing.
func benchStage(b *testing.B) mdac.Stage {
	b.Helper()
	proc := pdk.TSMC025()
	adc := stagespec.ADCSpec{Bits: 12, SampleRate: 40e6, VRef: 1}
	specs, err := stagespec.Translate(adc, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		b.Fatal(err)
	}
	sp := specs[1]
	sz := opamp.InitialSizing(proc, opamp.BlockSpec{
		GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
		Gain: sp.GainMin, Swing: sp.SwingMin,
	})
	return mdac.Stage{Spec: sp, Sizing: sz, Process: proc}
}

func benchHold(b *testing.B) *netlist.Circuit {
	b.Helper()
	hold, err := benchStage(b).HoldCircuit()
	if err != nil {
		b.Fatal(err)
	}
	return hold
}

// BenchmarkOP is the DC-Newton leg: operating point of the closed-loop
// hold circuit (gmin ladder and source stepping included when needed).
func BenchmarkOP(b *testing.B) {
	hold := benchHold(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.OP(hold, sim.DCOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranSettle is the transient leg: the worst-case residue step
// over the same settling window the hybrid evaluator uses, on the
// symbolic-factorization + modified-Newton (Shamanskii) solver path.
// internal/sim's BenchmarkTranSettleFullNewton runs the same transient
// on the full-Newton oracle.
func BenchmarkTranSettle(b *testing.B) {
	st := benchStage(b)
	hold := benchHold(b)
	window := st.Spec.TSlew + st.Spec.TSettle
	opts := sim.TranOpts{
		TStop: mdac.StepDelay + 1.5*window,
		TStep: window / 400,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Tran(hold, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// study13b is the request both study benchmarks serve: a 13-bit hybrid
// study on a tiny evaluation budget, mapped to engine options exactly as
// adcsynd maps a POST /v1/studies body, so the benchmarks measure the
// path a served request runs.
func study13b(b *testing.B, race bool) core.Options {
	b.Helper()
	opts, err := service.StudyRequest{
		Bits: 13, Mode: "hybrid", Evals: 12, Pattern: 6, Seed: 7, Race: race,
	}.Options()
	if err != nil {
		b.Fatal(err)
	}
	return opts
}

// reportStudy attaches the per-study evaluation and solver accounting:
// evaluator calls per study, and numeric factorizations and
// stale-factor (reused) solves per evaluation from the kernel counter
// deltas over the timed loop.
func reportStudy(b *testing.B, st *core.Study, k0 sim.KernelStats) {
	k := sim.ReadKernelStats()
	evals := float64(st.TotalEvals) * float64(b.N)
	b.ReportMetric(float64(st.TotalEvals), "evals/study")
	if evals > 0 {
		b.ReportMetric(float64(k.Factorizations-k0.Factorizations)/evals, "factorizations/eval")
		b.ReportMetric(float64(k.ReusedSolves-k0.ReusedSolves)/evals, "reusedSolves/eval")
	}
}

// BenchmarkStudy13b is the full-study number the kernel path is
// accountable to: every hot path this package's kernel benchmarks
// measure in isolation, composed end to end as a served request runs
// them.
func BenchmarkStudy13b(b *testing.B) {
	opts := study13b(b, false)
	k0 := sim.ReadKernelStats()
	b.ResetTimer()
	var st *core.Study
	for i := 0; i < b.N; i++ {
		var err error
		if st, err = core.Optimize(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
	reportStudy(b, st, k0)
}

// BenchmarkStudy13bRacing is BenchmarkStudy13b under the
// successive-halving racing scheduler: the wall-clock and
// evals-to-feasible numbers the racing search path is accountable to.
// "cold" starts from nothing; "warm" replays through a primed
// content-addressed cache (the daemon's steady state).
func BenchmarkStudy13bRacing(b *testing.B) {
	toFeasible := func(b *testing.B, st *core.Study) {
		n := 0
		for _, m := range st.MDACs {
			n += m.Result.EvalsToFeasible
		}
		b.ReportMetric(float64(n), "evalsToFeasible/study")
	}
	b.Run("cold", func(b *testing.B) {
		k0 := sim.ReadKernelStats()
		var st *core.Study
		for i := 0; i < b.N; i++ {
			var err error
			if st, err = core.Optimize(context.Background(), study13b(b, true)); err != nil {
				b.Fatal(err)
			}
		}
		reportStudy(b, st, k0)
		toFeasible(b, st)
	})
	b.Run("warm", func(b *testing.B) {
		cache, err := synth.NewCache(0, "")
		if err != nil {
			b.Fatal(err)
		}
		prime := study13b(b, true)
		prime.Synth.Cache = cache
		if _, err := core.Optimize(context.Background(), prime); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var st *core.Study
		for i := 0; i < b.N; i++ {
			o := study13b(b, true)
			o.Synth.Cache = cache
			if st, err = core.Optimize(context.Background(), o); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.TotalEvals), "evals/study")
		toFeasible(b, st)
		b.ReportMetric(float64(st.CacheHits), "cacheHits/study")
	})
}

// BenchmarkACSweep is the swept small-signal leg (the SimOnly
// transfer-function path): 40 points/decade over 1 kHz – 100 GHz on the
// broken-loop netlist.
func BenchmarkACSweep(b *testing.B) {
	st := benchStage(b)
	loop, err := st.LoopCircuit(1e-15)
	if err != nil {
		b.Fatal(err)
	}
	op, err := sim.OP(loop, sim.DCOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.AC(loop, op, sim.ACOpts{FStart: 1e3, FStop: 100e9, PointsPerDecade: 40}); err != nil {
			b.Fatal(err)
		}
	}
}
