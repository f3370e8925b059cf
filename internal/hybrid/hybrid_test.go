package hybrid

import (
	"context"
	"math"
	"reflect"
	"testing"

	"pipesyn/internal/enum"
	"pipesyn/internal/mdac"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
)

// relaxedStage returns a late-pipeline stage whose initial sizing is
// likely near-feasible, for fast integration tests.
func relaxedStage(t testing.TB) mdac.Stage {
	t.Helper()
	adc := stagespec.ADCSpec{Bits: 10, SampleRate: 40e6, VRef: 1}
	specs, err := stagespec.Translate(adc, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[1]
	p := pdk.TSMC025()
	sz := opamp.InitialSizing(p, opamp.BlockSpec{
		GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
		Gain: sp.GainMin, Swing: sp.SwingMin,
	})
	return mdac.Stage{Spec: sp, Sizing: sz, Process: p}
}

func TestHybridEvaluation(t *testing.T) {
	st := relaxedStage(t)
	m, err := Evaluate(context.Background(), st, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if m.Power <= 0 {
		t.Fatalf("power = %g", m.Power)
	}
	if m.AmpGain < 100 {
		t.Fatalf("amp gain = %g, implausibly low for a two-stage OTA", m.AmpGain)
	}
	if m.CrossoverHz <= 0 {
		t.Fatalf("no crossover found")
	}
	if m.PhaseMargin <= 0 || m.PhaseMargin >= 180 {
		t.Fatalf("PM = %g out of range", m.PhaseMargin)
	}
	if m.SettleTime <= 0 {
		t.Fatalf("settle time = %g", m.SettleTime)
	}
	if m.SwingHi <= m.SwingLo {
		t.Fatalf("swing window inverted: [%g, %g]", m.SwingLo, m.SwingHi)
	}
}

// The central claim of the hybrid method: its linear metrics agree with
// full (swept AC) simulation because both come from the same extracted
// small-signal reality.
func TestHybridMatchesSimOnly(t *testing.T) {
	st := relaxedStage(t)
	hy, err := Evaluate(context.Background(), st, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	so, err := Evaluate(context.Background(), st, SimOnly)
	if err != nil {
		t.Fatal(err)
	}
	relDiff := func(a, b float64) float64 {
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	if relDiff(hy.LoopGain0, so.LoopGain0) > 0.02 {
		t.Fatalf("loop gain: hybrid %g vs sim %g", hy.LoopGain0, so.LoopGain0)
	}
	if relDiff(hy.CrossoverHz, so.CrossoverHz) > 0.05 {
		t.Fatalf("crossover: hybrid %g vs sim %g", hy.CrossoverHz, so.CrossoverHz)
	}
	if math.Abs(hy.PhaseMargin-so.PhaseMargin) > 3 {
		t.Fatalf("PM: hybrid %g vs sim %g", hy.PhaseMargin, so.PhaseMargin)
	}
	// Power and settling come from identical legs, so they must agree
	// almost exactly.
	if relDiff(hy.Power, so.Power) > 1e-9 {
		t.Fatalf("power mismatch: %g vs %g", hy.Power, so.Power)
	}
}

// The equation-only path should be in the right ballpark (it is the
// designer's model, not reality) — within a factor of ~3 on gain and
// crossover for a near-textbook sizing.
func TestEquationOnlyBallpark(t *testing.T) {
	st := relaxedStage(t)
	eq, err := Evaluate(context.Background(), st, EquationOnly)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Evaluate(context.Background(), st, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(a, b float64) float64 {
		if a < b {
			a, b = b, a
		}
		return a / b
	}
	if r := ratio(eq.AmpGain, hy.AmpGain); r > 4 {
		t.Fatalf("equation gain %g vs hybrid %g: ratio %g", eq.AmpGain, hy.AmpGain, r)
	}
	if r := ratio(eq.CrossoverHz, hy.CrossoverHz); r > 4 {
		t.Fatalf("equation crossover %g vs hybrid %g: ratio %g", eq.CrossoverHz, hy.CrossoverHz, r)
	}
	if r := ratio(eq.Power, hy.Power); r > 2 {
		t.Fatalf("equation power %g vs hybrid %g", eq.Power, hy.Power)
	}
}

func TestCheckAudit(t *testing.T) {
	st := relaxedStage(t)
	specs := SpecsFor(st)
	good := Metrics{
		AmpGain: specs.GainMin * 2, CrossoverHz: specs.CrossoverMin * 2,
		PhaseMargin: 70, StaticError: specs.StaticErrMax / 2,
		SettleTime: specs.SettleTimeMax / 2, Settled: true,
		SwingLo: specs.SwingLoMax - 0.1, SwingHi: specs.SwingHiMin + 0.1,
		AllSaturated: true,
	}
	if r := Check(specs, good); r.Violations != 0 {
		t.Fatalf("good metrics flagged: %v", r.Failures)
	}
	bad := good
	bad.AmpGain = specs.GainMin / 10
	bad.Settled = false
	bad.AllSaturated = false
	r := Check(specs, bad)
	if r.Violations <= 0 || len(r.Failures) < 3 {
		t.Fatalf("bad metrics not flagged: %+v", r)
	}
}

func TestModeString(t *testing.T) {
	if Hybrid.String() != "hybrid" || EquationOnly.String() != "equation" || SimOnly.String() != "simulation" {
		t.Fatal("mode strings")
	}
	if _, err := Evaluate(context.Background(), relaxedStage(t), Mode(99)); err == nil {
		t.Fatal("expected unknown-mode error")
	}
}

func TestSettleTimeMeasurement(t *testing.T) {
	// Synthetic waveform: steps at t=1, exponentially approaches 2.0, so
	// exp(-t/0.5) < 0.02/1.0 → t > 0.5·ln50 ≈ 1.956. The crossing is
	// interpolated between samples: on a 0.1 grid, snapping to the next
	// sample would land up to 5 % late.
	want := 0.5 * math.Log(50)
	for _, dt := range []float64{0.01, 0.1} {
		st, ok, err := SettleTime(synthTran(dt), "out", 1.0, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("grid %g: should settle", dt)
		}
		if math.Abs(st-want) > 0.005*want {
			t.Fatalf("grid %g: settle time = %.5g, want %.5g within 0.5 %%", dt, st, want)
		}
	}
	tr := synthTran(0.01)
	// Impossible band: never settles.
	_, ok, err := SettleTime(tr, "out", 1.0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("should not settle to 1e-12")
	}
	if _, _, err := SettleTime(tr, "ghost", 0, 1); err == nil {
		t.Fatal("expected unknown-node error")
	}
}

// synthTran samples the synthetic step response on [0, 5) every dt.
func synthTran(dt float64) *sim.TranResult {
	n := int(math.Round(5 / dt))
	tr := &sim.TranResult{V: map[string][]float64{}}
	for i := 0; i < n; i++ {
		tt := float64(i) * dt
		v := 1.0
		if tt >= 1 {
			v = 2 - math.Exp(-(tt-1)/0.5)
		}
		tr.T = append(tr.T, tt)
		tr.V["out"] = append(tr.V["out"], v)
	}
	return tr
}

// TestWarmEvaluatorIsolation: one evaluator's warm state — the rebound
// hold-circuit kernel and the cached loop transfer function — must never
// leak from one candidate into the next. A single evaluator scores a
// sequence that revisits candidates around three kinds of failure and a
// topology change; every result must be bitwise equal (timing fields
// zeroed) to a fresh evaluator scoring that candidate alone, after the
// same solver work (kernel counter deltas).
func TestWarmEvaluatorIsolation(t *testing.T) {
	st := relaxedStage(t)
	a := st.Sizing.(opamp.MillerSizing)
	c := a
	c.W1 *= 1.3
	c.IRef *= 0.8
	c.CC *= 1.2
	c.RZ *= 1.5 // moves the constant stamp, not just the device models
	noDC := a
	noDC.IRef = 1e3 // DC exhausts Newton, gmin and source stepping
	badValue := a
	badValue.CC = 0 // rejected before any solve: the kernel keeps its binding
	tele, err := opamp.Initial(opamp.Telescopic, st.Process, opamp.BlockSpec{
		GBW: st.Spec.GBWMin, SR: st.Spec.SRMin, CLoad: st.Spec.CLoad, CFeed: st.Spec.CFeed,
		Gain: st.Spec.GainMin, Swing: st.Spec.SwingMin,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := []struct {
		name    string
		sz      opamp.Amp
		wantErr bool
	}{
		{"A", a, false}, {"B/no-DC", noDC, true}, {"C", c, false},
		{"B/bad-value", badValue, true}, {"A", a, false},
		{"telescopic", tele, false}, {"A", a, false}, {"C", c, false},
	}
	for _, mode := range []Mode{Hybrid, SimOnly} {
		warm := NewStageEvaluator(st.Spec, st.Process, mode)
		for i, cand := range seq {
			k0 := sim.ReadKernelStats()
			got, gotErr := warm.Evaluate(context.Background(), cand.sz)
			k1 := sim.ReadKernelStats()
			want, wantErr := NewStageEvaluator(st.Spec, st.Process, mode).Evaluate(context.Background(), cand.sz)
			k2 := sim.ReadKernelStats()
			if warmWork, coldWork := kernelWork(k0, k1), kernelWork(k1, k2); warmWork != coldWork {
				t.Fatalf("%v #%d %s: warm solver work %v, fresh %v", mode, i, cand.name, warmWork, coldWork)
			}
			if (gotErr != nil) != cand.wantErr || (wantErr != nil) != cand.wantErr {
				t.Fatalf("%v #%d %s: warm err %v, fresh err %v, want failure %v", mode, i, cand.name, gotErr, wantErr, cand.wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("%v #%d %s: warm error %q vs fresh %q", mode, i, cand.name, gotErr, wantErr)
				}
				continue
			}
			got.DCTime, got.TFTime, got.TranTime = 0, 0, 0
			want.DCTime, want.TFTime, want.TranTime = 0, 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v #%d %s: warm evaluator leaked state:\nwarm  %+v\nfresh %+v", mode, i, cand.name, got, want)
			}
		}
	}
}

// kernelWork is the simulator's counted work between two snapshots:
// factorizations, reused solves, reuse fallbacks, ordered fallbacks.
func kernelWork(a, b sim.KernelStats) [4]int64 {
	return [4]int64{
		b.Factorizations - a.Factorizations, b.ReusedSolves - a.ReusedSolves,
		b.ReuseFallbacks - a.ReuseFallbacks, b.OrderedFallbacks - a.OrderedFallbacks,
	}
}
