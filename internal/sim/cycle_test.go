package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pipesyn/internal/enum"
	"pipesyn/internal/mdac"
	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/stagespec"
)

// TestTranCycleCutBitIdentical runs the evaluator's settling transient
// on 400 perturbed sizings (those of hybrid's
// TestSettleAccuracyAgainstFineGrid), once as production runs it and
// once on the noCycleCut oracle, which runs every failing Newton loop to
// MaxNewton. Every result and every error must agree bit for bit, and
// cutting each cycling loop at its first exact repeat must save at
// least half the factorizations. At the first step of each sizing where
// the reuse loop stalls, the two *ConvergenceErrors are compared field
// by field, for the step and for a rerun of its loop from a fresh
// factor.
func TestTranCycleCutBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("800 settling transients")
	}
	var factors, reused [2]int64 // production, oracle
	stalls := 0
	cases := settleSizings(t)
	for _, sc := range cases {
		opts := sc.opts
		if err := opts.normalize(); err != nil {
			t.Fatal(err)
		}
		var res [2]*TranResult
		var errs [2]error
		for side, oracle := range []bool{false, true} {
			cc, err := compile(sc.c)
			if err != nil {
				t.Fatal(err)
			}
			cc.noCycleCut = oracle
			k0 := ReadKernelStats()
			res[side], errs[side] = tranCompiled(cc, opts)
			k1 := ReadKernelStats()
			factors[side] += k1.Factorizations - k0.Factorizations
			reused[side] += k1.ReusedSolves - k0.ReusedSolves
		}
		sameErr(t, sc.name, errs[0], errs[1])
		if errs[0] == nil && !sameResult(res[0], res[1]) {
			t.Fatalf("%s: transient result differs from the oracle's", sc.name)
		}
		if compareFirstStall(t, sc.name, sc.c, opts) {
			stalls++
		}
	}
	t.Logf("%d transients, %d stalling steps compared; factorizations %d, oracle %d; reused solves %d, oracle %d",
		len(cases), stalls, factors[0], factors[1], reused[0], reused[1])
	if stalls < 20 {
		t.Fatalf("%d stalling steps compared, want at least 20", stalls)
	}
	if 2*factors[0] > factors[1] {
		t.Fatalf("%d factorizations against the oracle's %d, want at most half", factors[0], factors[1])
	}
}

type settleCase struct {
	name string
	c    *netlist.Circuit
	opts TranOpts
}

// settleSizings returns the hold circuits of TestSettleAccuracyAgainstFineGrid's
// 400 sizings, each with the evaluator's settling span and probe.
func settleSizings(t *testing.T) []settleCase {
	proc := pdk.TSMC025()
	var out []settleCase
	for _, p := range []struct {
		bits  int
		cfg   enum.Config
		stage int
		seed  int64
	}{
		{13, enum.Config{4, 4}, 0, 1},
		{13, enum.Config{3, 3, 3}, 0, 2},
		{10, enum.Config{3, 2, 2, 2, 2}, 1, 3},
		{12, enum.Config{4, 3, 2}, 1, 4},
	} {
		specs, err := stagespec.Translate(stagespec.ADCSpec{Bits: p.bits, SampleRate: 40e6, VRef: 1}, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp := specs[p.stage]
		base := opamp.InitialSizing(proc, opamp.BlockSpec{
			GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
			Gain: sp.GainMin, Swing: sp.SwingMin,
		})
		rng := rand.New(rand.NewSource(p.seed))
		for i := 0; i < 100; i++ {
			v := base.Vector()
			for j := range v {
				v[j] *= math.Exp(0.4 * rng.NormFloat64())
			}
			sz, err := opamp.FromVector(v)
			if err != nil {
				t.Fatal(err)
			}
			st := mdac.Stage{Spec: sp, Sizing: sz.Clamp(proc), Process: proc}
			hold, err := st.HoldCircuit()
			if err != nil {
				t.Fatal(err)
			}
			tStop, tStep := st.SettleSpan()
			out = append(out, settleCase{
				name: fmt.Sprintf("%d-bit %v stage %d #%d", p.bits, p.cfg, p.stage+1, i),
				c:    hold,
				opts: TranOpts{TStop: tStop, TStep: tStep, Probes: []string{mdac.NodeOut}},
			})
		}
	}
	return out
}

// compareFirstStall drives the production step sequence on a cut and an
// oracle compilation of c in lockstep, up to the first step whose Newton
// loop fails. It compares that step's error field by field, then reruns
// the step's loop from a fresh factor on both and compares again. It
// reports whether such a step was found.
func compareFirstStall(t *testing.T, name string, c *netlist.Circuit, opts TranOpts) bool {
	var runs [2]*tranRun
	var xs, nexts [2][]float64
	for side, oracle := range []bool{false, true} {
		cc, err := compile(c)
		if err != nil {
			t.Fatal(err)
		}
		cc.noCycleCut = oracle
		dc, err := opCompiled(cc, DCOpts{})
		if err != nil {
			return false
		}
		runs[side] = newTranRun(cc, opts, dc.x)
		xs[side] = append([]float64(nil), dc.x...)
		nexts[side] = make([]float64, len(dc.x))
	}
	steps := int(math.Round(opts.TStop/opts.TStep)) + 1
	for k := 1; k < steps; k++ {
		h := math.Min(float64(k)*opts.TStep, opts.TStop) - float64(k-1)*opts.TStep
		method := Trapezoidal
		if k <= dampSteps {
			method = BackwardEuler
		}
		var errs [2]error
		for side, tr := range runs {
			errs[side] = tr.solveStep(nexts[side], xs[side], float64(k-1)*opts.TStep+h, h, method)
		}
		sameErr(t, name, errs[0], errs[1])
		if errs[0] != nil {
			for side, tr := range runs {
				copy(nexts[side], xs[side])
				tr.haveFactor = false
				errs[side] = tr.newtonLoop(nexts[side], float64(k-1)*opts.TStep+h, true)
			}
			sameErr(t, name+" (reuse loop)", errs[0], errs[1])
			return true
		}
		if !sameBits(nexts[0], nexts[1]) {
			t.Fatalf("%s: step %d state differs from the oracle's", name, k)
		}
		for side, tr := range runs {
			tr.commit(xs[side], nexts[side])
			xs[side], nexts[side] = nexts[side], xs[side]
		}
	}
	return false
}

// sameErr fails the test unless got and want are both nil or carry the
// same message and, for a *ConvergenceError, the same fields bit for bit.
func sameErr(t *testing.T, name string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error %v, oracle %v", name, got, want)
	}
	var g, w *ConvergenceError
	if errors.As(got, &g) != errors.As(want, &w) {
		t.Fatalf("%s: error %v, oracle %v", name, got, want)
	}
	if g != nil && (g.Analysis != w.Analysis || g.Iterations != w.Iterations || g.WorstNode != w.WorstNode ||
		g.Detail != w.Detail || !sameBits([]float64{g.Time, g.WorstDelta}, []float64{w.Time, w.WorstDelta})) {
		t.Fatalf("%s: convergence error %+v, oracle %+v", name, *g, *w)
	}
}

func sameResult(a, b *TranResult) bool {
	if !sameBits(a.T, b.T) || len(a.V) != len(b.V) {
		return false
	}
	for node, w := range a.V {
		if !sameBits(w, b.V[node]) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
