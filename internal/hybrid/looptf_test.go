package hybrid

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pipesyn/internal/dpi"
	"pipesyn/internal/mdac"
	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/sim"
)

// perturbedSizings returns n sizings for the relaxed stage: log-normal
// (σ = 0.2) perturbations of the designer-equation sizing whose hold
// circuit has a DC operating point.
func perturbedSizings(tb testing.TB, n int) []opamp.Amp {
	tb.Helper()
	st := relaxedStage(tb)
	sp := st.Spec
	base := opamp.InitialSizing(st.Process, opamp.BlockSpec{
		GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
		Gain: sp.GainMin, Swing: sp.SwingMin,
	})
	rng := rand.New(rand.NewSource(19))
	var out []opamp.Amp
	for tries := 0; len(out) < n; tries++ {
		if tries == 4*n {
			tb.Fatalf("only %d of %d perturbed sizings have an operating point", len(out), n)
		}
		v := base.Vector()
		for j := range v {
			v[j] *= math.Exp(0.2 * rng.NormFloat64())
		}
		sz, err := opamp.FromVector(v)
		if err != nil {
			tb.Fatal(err)
		}
		st.Sizing = sz.Clamp(st.Process)
		if _, _, _, err := holdOP(st); err == nil {
			out = append(out, st.Sizing)
		}
	}
	return out
}

// holdOP solves st's hold circuit cold and returns it with its operating
// point and the input capacitance the evaluator reads from it.
func holdOP(st mdac.Stage) (*netlist.Circuit, *sim.DCResult, float64, error) {
	hold, err := st.HoldCircuit()
	if err != nil {
		return nil, nil, 0, err
	}
	op, err := sim.OP(hold, sim.DCOpts{})
	if err != nil {
		return nil, nil, 0, err
	}
	return hold, op, op.MOS[mdac.AmpPrefix+"m1"].CGS, nil
}

// TestSlotFillMatchesEnv: the shared program's slot vector, filled from
// the hold circuit and its operating point, equals the parent route —
// dpi.Env over a freshly built loop netlist — bit for bit; and a
// cin ≤ 0 fails as that netlist (which then lacks its cin element) does.
func TestSlotFillMatchesEnv(t *testing.T) {
	st := relaxedStage(t)
	for k, sz := range perturbedSizings(t, 20) {
		st.Sizing = sz
		hold, op, cin, err := holdOP(st)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := loopTFFor(st, hold)
		if err != nil {
			t.Fatal(err)
		}
		slot := make([]complex128, len(tf.srcs)+1)
		if err := tf.fill(slot, hold, op, cin); err != nil {
			t.Fatal(err)
		}
		loop, err := st.LoopCircuit(cin)
		if err != nil {
			t.Fatal(err)
		}
		env, err := dpi.Env(loop, op, dpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		bound := 0
		for name, want := range env {
			i := tf.prog.VarIndex(name)
			if i < 0 || i == tf.sIdx {
				continue
			}
			bound++
			if got := slot[i]; math.Float64bits(real(got)) != math.Float64bits(want) || imag(got) != 0 {
				t.Fatalf("#%d: slot %d (%s) = %v, dpi.Env has %v", k, i, name, got, want)
			}
		}
		if bound != len(slot)-1 {
			t.Fatalf("#%d: dpi.Env has %d of the program's %d variables", k, bound, len(slot)-1)
		}
		for _, bad := range []float64{0, -cin, math.NaN()} {
			err := tf.fill(slot, hold, op, bad)
			if err == nil || err.Error() != `hybrid: environment missing "c_cin"` {
				t.Fatalf("#%d: cin %g: error %v, want the missing c_cin error", k, bad, err)
			}
		}
	}
}

// loopMetricsFromRef is the full-grid fold the streaming loopFold
// replaced, kept verbatim as the oracle for the early-stopped sweep.
func loopMetricsFromRef(freqs []float64, vals []complex128) loopMet {
	var met loopMet
	if len(vals) == 0 {
		return met
	}
	met.gain0 = cmplxAbs(vals[0])
	prevMag := cmplxAbs(vals[0])
	prevPhase := math.Atan2(imag(vals[0]), real(vals[0])) * 180 / math.Pi
	for i := 1; i < len(vals); i++ {
		mag := cmplxAbs(vals[i])
		phase := math.Atan2(imag(vals[i]), real(vals[i])) * 180 / math.Pi
		for phase-prevPhase > 180 {
			phase -= 360
		}
		for phase-prevPhase < -180 {
			phase += 360
		}
		if met.crossover == 0 && prevMag >= 1 && mag < 1 {
			frac := (prevMag - 1) / (prevMag - mag)
			lf := math.Log10(freqs[i-1]) + frac*(math.Log10(freqs[i])-math.Log10(freqs[i-1]))
			met.crossover = math.Pow(10, lf)
			phAt := prevPhase + frac*(phase-prevPhase)
			pm := 180 + phAt
			for pm > 360 {
				pm -= 360
			}
			for pm < -360 {
				pm += 360
			}
			met.pm = pm
		}
		prevMag, prevPhase = mag, phase
	}
	return met
}

// refSweep folds the program's loop gain over a 400-points-per-decade
// grid from 1 kHz with the oracle fold, up to its first crossing.
func refSweep(t *testing.T, tf *loopTF, slot []complex128) loopMet {
	t.Helper()
	vals := append([]complex128(nil), slot...)
	const ppd = 400
	var freqs []float64
	var h []complex128
	for i := 0; i <= 8*ppd; i++ {
		f := 1e3 * math.Pow(10, float64(i)/ppd)
		vals[tf.sIdx] = complex(0, 2*math.Pi*f)
		v, err := tf.prog.EvalC(vals)
		if err != nil {
			t.Fatal(err)
		}
		freqs, h = append(freqs, f), append(h, -v)
		if len(h) > 1 && cmplxAbs(h[len(h)-2]) >= 1 && cmplxAbs(h[len(h)-1]) < 1 {
			break
		}
	}
	return loopMetricsFromRef(freqs, h)
}

func sameBits(a, b loopMet) bool {
	return math.Float64bits(a.gain0) == math.Float64bits(b.gain0) &&
		math.Float64bits(a.crossover) == math.Float64bits(b.crossover) &&
		math.Float64bits(a.pm) == math.Float64bits(b.pm)
}

// TestCrossoverRootFind: for real sizings, the root-found crossover has
// |T(fc)| within 1e-9 of 1, and it and the phase margin agree with the
// interpolated first crossing of a 400-points-per-decade sweep to 1e-4
// relative and 0.01°. The DC gain is the coarse pass's first sample, so
// it matches bit for bit.
func TestCrossoverRootFind(t *testing.T) {
	st := relaxedStage(t)
	se := NewStageEvaluator(st.Spec, st.Process, Hybrid)
	var worstF, worstPM float64
	for k, sz := range perturbedSizings(t, 20) {
		m, err := se.Evaluate(context.Background(), sz)
		if err != nil {
			t.Fatalf("#%d: %v", k, err)
		}
		if !(m.CrossoverHz > 0) {
			t.Fatalf("#%d: no crossover", k)
		}
		v, err := se.loopGain(m.CrossoverHz)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(cmplxAbs(v) - 1); d > 1e-9 {
			t.Fatalf("#%d: |T(%g)| = 1%+.3g, want within 1e-9 of 1", k, m.CrossoverHz, d)
		}
		ref := refSweep(t, se.tf, se.slot)
		dF := math.Abs(m.CrossoverHz/ref.crossover - 1)
		dPM := math.Abs(m.PhaseMargin - ref.pm)
		worstF, worstPM = math.Max(worstF, dF), math.Max(worstPM, dPM)
		if math.Float64bits(m.LoopGain0) != math.Float64bits(ref.gain0) || dF > 1e-4 || dPM > 0.01 {
			t.Fatalf("#%d: root-found gain %g, crossover %g, PM %g; 400-ppd sweep %+v",
				k, m.LoopGain0, m.CrossoverHz, m.PhaseMargin, ref)
		}
	}
	t.Logf("worst crossover %.2g relative, worst PM %.2g°", worstF, worstPM)
}

// TestEarlyStopMatchesFullGrid: the streaming fold, which the coarse
// pass and SimOnly's AC sweep both use, stops at its first unity
// crossing and changes no bit of the loop metrics against every sample
// folded by the replaced full-grid loop — for samples without a
// crossing, with two crossings, and with a phase wrap before the
// crossing.
func TestEarlyStopMatchesFullGrid(t *testing.T) {
	freqs := []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	polar := func(mags, degs []float64) []complex128 {
		v := make([]complex128, len(mags))
		for i := range v {
			rad := degs[i] * math.Pi / 180
			v[i] = complex(mags[i]*math.Cos(rad), mags[i]*math.Sin(rad))
		}
		return v
	}
	cases := map[string][]complex128{
		"no crossing, above": polar([]float64{900, 800, 500, 90, 12, 3, 1.5}, []float64{-1, -10, -45, -90, -100, -130, -150}),
		"no crossing, below": polar([]float64{0.9, 0.8, 0.5, 0.3, 0.2, 0.1, 0.01}, []float64{-1, -10, -45, -90, -100, -130, -150}),
		"two crossings":      polar([]float64{100, 10, 0.5, 2, 0.3, 0.1, 0.01}, []float64{-5, -60, -100, -120, -150, -170, -175}),
		"wrap, then cross":   polar([]float64{100, 50, 20, 5, 0.7, 0.2, 0.1}, []float64{-90, -170, 175, 100, 60, 10, -30}),
	}
	for name, vals := range cases {
		var fold loopFold
		fed := 0
		for i, f := range freqs {
			fed++
			if fold.add(f, vals[i]) {
				break
			}
		}
		want := loopMetricsFromRef(freqs, vals)
		if !sameBits(fold.met, want) {
			t.Fatalf("%s: fold %+v after %d samples, full grid %+v", name, fold.met, fed, want)
		}
		if name == "two crossings" && fed != 3 {
			t.Fatalf("%s: fold read %d samples, want it to stop at the first crossing (3)", name, fed)
		}
	}
}

// TestSharedLoopTFConcurrent: eight fresh evaluators, each scoring the
// same sizings, start together on an empty transfer function table, so
// the first compile races with the other goroutines' lookups. Every
// result must equal the serial one bit for bit, and the table must end
// with one entry. Run under the race detector by ci.sh.
func TestSharedLoopTFConcurrent(t *testing.T) {
	st := relaxedStage(t)
	sizings := perturbedSizings(t, 4)
	evaluate := func(se *StageEvaluator, sz opamp.Amp) Metrics {
		m, err := se.Evaluate(context.Background(), sz)
		if err != nil {
			t.Error(err)
		}
		m.DCTime, m.TFTime, m.TranTime = 0, 0, 0
		return m
	}
	want := make([]Metrics, len(sizings))
	for i, sz := range sizings {
		want[i] = evaluate(NewStageEvaluator(st.Spec, st.Process, Hybrid), sz)
	}

	loopTFs.Lock()
	loopTFs.m = map[string]*loopTF{}
	loopTFs.Unlock()
	const workers = 8
	got := make([][]Metrics, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]Metrics, len(sizings))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			se := NewStageEvaluator(st.Spec, st.Process, Hybrid)
			for k := range sizings {
				i := (k + w) % len(sizings) // the workers start on different sizings
				got[w][i] = evaluate(se, sizings[i])
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range want {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Fatalf("worker %d sizing %d: concurrent %+v, serial %+v", w, i, got[w][i], want[i])
			}
		}
	}
	loopTFs.Lock()
	defer loopTFs.Unlock()
	if len(loopTFs.m) != 1 {
		t.Fatalf("table holds %d transfer functions, want 1", len(loopTFs.m))
	}
}
