// Benchmark harness: one benchmark per figure/claim in the paper's
// evaluation section. Each benchmark regenerates its figure from scratch
// (synthesis included), writes the rendered text into figures/, and
// reports the headline numbers as custom metrics. Run with
//
//	go test -bench=. -benchmem
//
// The figure studies use package figure's settings, shared with
// cmd/figgen, and are memoized across benchmarks within one process so
// Fig. 2 and Fig. 3 reuse the Fig. 1 work, exactly as the paper's flow
// shares MDAC syntheses across configurations.
package pipesyn_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"pipesyn/internal/core"
	"pipesyn/internal/enum"
	"pipesyn/internal/figure"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/report"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/subadc"
	"pipesyn/internal/synth"
)

var (
	sweepOnce sync.Once
	studies   []*core.Study
	sweepErr  error
)

// figureStudies runs the figure sweep (figure.Bits, 10–13 bits) once per
// process. The 13-bit study is last.
func figureStudies(b *testing.B) []*core.Study {
	b.Helper()
	sweepOnce.Do(func() {
		studies, sweepErr = core.Sweep(context.Background(), figure.Bits, figure.Study(figure.Seed))
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return studies
}

// study13 is the 13-bit figure study.
func study13(b *testing.B) *core.Study {
	all := figureStudies(b)
	return all[len(all)-1]
}

func writeFigure(b *testing.B, name string, render func(f *os.File) error) {
	b.Helper()
	if err := os.MkdirAll("figures", 0o755); err != nil {
		b.Fatal(err)
	}
	f, err := os.Create(filepath.Join("figures", name))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := render(f); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig1StagePower13Bit regenerates Fig. 1: per-stage power of the
// seven 13-bit candidates. Headline metrics: total power of the best
// candidate and the first-stage power spread across m₁ ∈ {2,3,4}.
func BenchmarkFig1StagePower13Bit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := study13(b)
		writeFigure(b, "fig1_stage_power_13bit.txt", func(f *os.File) error {
			if err := report.Fig1(f, st); err != nil {
				return err
			}
			return report.MDACTable(f, st)
		})
		b.ReportMetric(st.Best.TotalPower*1e3, "mW_best")
		// First-stage power per first-stage resolution.
		firstPower := map[int]float64{}
		for _, c := range st.Candidates {
			firstPower[c.Config[0]] = c.Stages[0].Total
		}
		b.ReportMetric(firstPower[2]*1e3, "mW_stage1_m2")
		b.ReportMetric(firstPower[3]*1e3, "mW_stage1_m3")
		b.ReportMetric(firstPower[4]*1e3, "mW_stage1_m4")
	}
}

// BenchmarkFig2TotalPower regenerates Fig. 2: total leading-stage power of
// every candidate for 10–13 bit targets. Headline metric: best-candidate
// power per resolution.
func BenchmarkFig2TotalPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ordered := figureStudies(b)
		writeFigure(b, "fig2_total_power.txt", func(f *os.File) error {
			return report.Fig2(f, ordered)
		})
		for _, st := range ordered {
			b.ReportMetric(st.Best.TotalPower*1e3, fmt.Sprintf("mW_best_%dbit", st.Bits))
		}
	}
}

// BenchmarkFig3Rules regenerates Fig. 3: the optimum-configuration rules
// derived from the sweep. Headline metrics: the first/last stage bits of
// every optimum.
func BenchmarkFig3Rules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rules := core.DeriveRules(figureStudies(b))
		writeFigure(b, "fig3_rules.txt", func(f *os.File) error {
			return report.Fig3(f, rules)
		})
		for _, r := range rules {
			b.ReportMetric(float64(r.FirstBits), fmt.Sprintf("m1_%dbit", r.Bits))
			b.ReportMetric(float64(r.LastBits), fmt.Sprintf("mLast_%dbit", r.Bits))
		}
	}
}

// BenchmarkOptimizeSerialVsParallel measures the parallel study engine
// against the serial baseline on the same 10-bit hybrid-mode study: the
// DAG scheduler fans the independent MDAC design points (and restarts)
// across cores, and the studies are bit-identical, so the time ratio of
// the two sub-benchmarks is the pure scheduling speedup (≈ min(cores,
// points) on a multicore host; ≈ 1 on a single core). The third
// sub-benchmark replays the study through the content-addressed cache
// and reports its near-zero evaluator calls.
func BenchmarkOptimizeSerialVsParallel(b *testing.B) {
	parOpts := func() core.Options {
		return core.Options{
			Bits: 10, SampleRate: 40e6, Mode: hybrid.Hybrid,
			Synth: synth.Options{Seed: 7, MaxEvals: 60, PatternIter: 30, Restarts: 2},
		}
	}
	var serialBest, parallelBest float64
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := parOpts()
			opts.Workers = 1
			st, err := core.Optimize(context.Background(), opts)
			if err != nil {
				b.Fatal(err)
			}
			serialBest = st.Best.TotalPower
			b.ReportMetric(float64(st.TotalEvals), "evals")
		}
	})
	b.Run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := core.Optimize(context.Background(), parOpts())
			if err != nil {
				b.Fatal(err)
			}
			parallelBest = st.Best.TotalPower
			b.ReportMetric(float64(st.TotalEvals), "evals")
		}
	})
	if serialBest != 0 && parallelBest != 0 && serialBest != parallelBest {
		b.Fatalf("parallel study diverged: %.9g vs serial %.9g", parallelBest, serialBest)
	}
	b.Run("warm-cache", func(b *testing.B) {
		cache, err := synth.NewCache(0, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		prime := parOpts()
		prime.Synth.Cache = cache
		if _, err := core.Optimize(context.Background(), prime); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts := parOpts()
			opts.Synth.Cache = cache
			st, err := core.Optimize(context.Background(), opts)
			if err != nil {
				b.Fatal(err)
			}
			if st.TotalEvals != 0 {
				b.Fatalf("warm run spent %d evaluator calls", st.TotalEvals)
			}
			b.ReportMetric(float64(st.CacheHits), "cache_hits")
			b.ReportMetric(float64(st.TotalEvals), "evals")
		}
	})
}

// BenchmarkRetargetColdVsWarm reproduces the §4 setup-time claim: a warm-
// started retarget of a neighbouring spec reaches feasibility with far
// fewer evaluator calls than the first (cold) synthesis.
func BenchmarkRetargetColdVsWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold, warm, err := figure.Retarget(context.Background(), figure.Study(figure.Seed).Synth)
		if err != nil {
			b.Fatal(err)
		}
		writeFigure(b, "retarget_cold_vs_warm.txt", func(f *os.File) error {
			fmt.Fprintf(f, "cold: evals=%d evals-to-feasible=%d power=%.4g W feasible=%v\n",
				cold.Evals, cold.EvalsToFeasible, cold.Metrics.Power, cold.Feasible)
			fmt.Fprintf(f, "warm: evals=%d evals-to-feasible=%d power=%.4g W feasible=%v\n",
				warm.Evals, warm.EvalsToFeasible, warm.Metrics.Power, warm.Feasible)
			return nil
		})
		b.ReportMetric(float64(cold.Evals), "evals_cold")
		b.ReportMetric(float64(warm.Evals), "evals_warm")
		if warm.EvalsToFeasible > 0 && cold.EvalsToFeasible > 0 {
			b.ReportMetric(float64(cold.EvalsToFeasible)/float64(warm.EvalsToFeasible), "feasible_speedup")
		}
	}
}

// BenchmarkEvalHybridVsSimVsEq reproduces the §3 evaluation comparison:
// per-candidate evaluation time for the three evaluator modes, plus the
// accuracy of the cheap modes against the swept-AC reference.
func BenchmarkEvalHybridVsSimVsEq(b *testing.B) {
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
	ref, err := hybrid.NewStageEvaluator(sp, proc, hybrid.SimOnly).Evaluate(context.Background(), sz)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []hybrid.Mode{hybrid.SimOnly, hybrid.Hybrid, hybrid.EquationOnly} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			se := hybrid.NewStageEvaluator(sp, proc, mode)
			var m hybrid.Metrics
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err = se.Evaluate(context.Background(), sz)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			relErr := func(got, want float64) float64 {
				if want == 0 {
					return 0
				}
				d := (got - want) / want
				if d < 0 {
					d = -d
				}
				return d
			}
			b.ReportMetric(relErr(m.CrossoverHz, ref.CrossoverHz)*100, "%err_crossover")
			b.ReportMetric(relErr(m.LoopGain0, ref.LoopGain0)*100, "%err_loopgain")
			b.ReportMetric(relErr(m.SettleTime, ref.SettleTime)*100, "%err_settle")
			b.ReportMetric(float64(m.TFTime.Nanoseconds()), "ns_tf_leg")
		})
	}
}

// BenchmarkBehavioralVerification regenerates the cross-layer check: the
// best synthesized 13-bit configuration run through the behavioral
// converter with its synthesized static errors and kT/C noise.
func BenchmarkBehavioralVerification(b *testing.B) {
	st := study13(b)
	opts := figure.Study(figure.Seed)
	opts.Bits = st.Bits
	for i := 0; i < b.N; i++ {
		m, err := core.BehavioralCheck(st, opts, 4096)
		if err != nil {
			b.Fatal(err)
		}
		writeFigure(b, "behavioral_13bit.txt", func(f *os.File) error {
			_, err := fmt.Fprintf(f, "config %s: SNDR %.2f dB, SFDR %.2f dB, ENOB %.2f\n",
				st.Best.Config, m.SNDRdB, m.SFDRdB, m.ENOB)
			return err
		})
		b.ReportMetric(m.ENOB, "ENOB")
	}
}

// BenchmarkSubADCPowerCurve is the ablation behind the enumeration bound
// mᵢ ≤ 4: comparator-bank power grows exponentially with stage resolution.
func BenchmarkSubADCPowerCurve(b *testing.B) {
	proc := pdk.TSMC025()
	for i := 0; i < b.N; i++ {
		curve, err := subADCCurve(proc)
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range curve {
			b.ReportMetric(p*1e3, fmt.Sprintf("mW_%dbit_bank", j+2))
		}
	}
}

func subADCCurve(proc *pdk.Process) ([]float64, error) {
	return subadc.PowerCurve(proc, 40e6, 1.0, 2, 5)
}
