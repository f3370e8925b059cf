package hybrid

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pipesyn/internal/enum"
	"pipesyn/internal/mdac"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
)

// refStepsPerWindow sets the reference grid of the settling accuracy
// test: a cold transient on window/3200 steps, whose settle times agree
// with a window/6400 run to 0.025 % mean (0.17 % p99) over the same
// sizings. One sizing flips Settled between the two (12-bit 4-3-2
// stage 2 #45: 14.46 ns against 12.10 ns), because its ringing tail
// grazes the band edge.
const refStepsPerWindow = 3200

// boundaryBand is the margin around the settling window inside which a
// Settled flip is logged rather than failed: an evaluator that meets the
// test's 1 % mean bound cannot decide a sizing whose reference settle
// time lies within 1 % of the window.
const boundaryBand = 0.01

// TestSettleAccuracyAgainstFineGrid bounds the grid error of the
// evaluator's settling leg. At four design points it scores 100
// log-normal (σ = 0.4) perturbations of the designer-equation sizing
// through one StageEvaluator per point, and scores each sizing again
// with a cold sim.Tran of the same hold circuit on the fine reference
// grid. No error or feasibility result may flip, and no Settled result
// outside boundaryBand of the window; over the sizings that settle on
// both sides, the relative settle-time error must stay at mean ≤ 1 %
// and nearest-rank p99 ≤ 5 %.
func TestSettleAccuracyAgainstFineGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("400 evaluations plus 400 fine-grid transients")
	}
	proc := pdk.TSMC025()
	points := []struct {
		bits  int
		cfg   enum.Config
		stage int
		seed  int64
	}{
		{13, enum.Config{4, 4}, 0, 1},
		{13, enum.Config{3, 3, 3}, 0, 2},
		{10, enum.Config{3, 2, 2, 2, 2}, 1, 3},
		{12, enum.Config{4, 3, 2}, 1, 4},
	}
	var rel []float64
	var evaluated, errFlips, settledFlips, boundaryFlips, feasFlips int
	for _, p := range points {
		specs, err := stagespec.Translate(stagespec.ADCSpec{Bits: p.bits, SampleRate: 40e6, VRef: 1}, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp := specs[p.stage]
		base := opamp.InitialSizing(proc, opamp.BlockSpec{
			GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
			Gain: sp.GainMin, Swing: sp.SwingMin,
		})
		se := NewStageEvaluator(sp, proc, Hybrid)
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
			m, err := se.Evaluate(context.Background(), st.Sizing)
			refT, refSettled, refErr := fineSettle(st)
			if (err != nil) != (refErr != nil) {
				errFlips++
				t.Logf("%d-bit %v stage %d #%d: evaluator error %v, reference error %v", p.bits, p.cfg, p.stage+1, i, err, refErr)
				continue
			}
			if err != nil {
				continue
			}
			evaluated++
			ref := m
			ref.SettleTime, ref.Settled = refT, refSettled
			audit := SpecsFor(st)
			if m.Settled != ref.Settled {
				window := sp.TSlew + sp.TSettle
				kind := "Settled flip"
				if math.Abs(refT-window) <= boundaryBand*window {
					kind = "boundary flip"
					boundaryFlips++
				} else {
					settledFlips++
				}
				t.Logf("%s at %d-bit %v stage %d #%d: Settled %v (%.4g s), reference %v (%.4g s), window %.4g s",
					kind, p.bits, p.cfg, p.stage+1, i, m.Settled, m.SettleTime, ref.Settled, refT, window)
			}
			if (Check(audit, m).Violations == 0) != (Check(audit, ref).Violations == 0) {
				feasFlips++
			}
			if m.Settled && ref.Settled && refT > 0 {
				rel = append(rel, math.Abs(m.SettleTime-refT)/refT)
			}
		}
	}
	if len(rel) == 0 {
		t.Fatal("no sizing settled on both sides")
	}
	sort.Float64s(rel)
	mean := 0.0
	for _, r := range rel {
		mean += r
	}
	mean /= float64(len(rel))
	rank := func(q float64) float64 { return rel[int(math.Ceil(q*float64(len(rel))))-1] }
	t.Logf("%d sizings evaluated, %d settled on both sides; flips: %d error, %d Settled (+%d within %.0f %% of the window), %d feasibility",
		evaluated, len(rel), errFlips, settledFlips, boundaryFlips, 100*boundaryBand, feasFlips)
	t.Logf("|ΔT|/T: mean %.3f %%, p50 %.3f %%, p99 %.3f %%, max %.3f %%",
		100*mean, 100*rank(0.5), 100*rank(0.99), 100*rel[len(rel)-1])
	if errFlips+settledFlips+feasFlips > 0 {
		t.Errorf("results flipped against the reference: %d error, %d Settled, %d feasibility", errFlips, settledFlips, feasFlips)
	}
	if mean > 0.01 {
		t.Errorf("mean |ΔT|/T = %.3f %%, want ≤ 1 %%", 100*mean)
	}
	if p99 := rank(0.99); p99 > 0.05 {
		t.Errorf("p99 |ΔT|/T = %.3f %%, want ≤ 5 %%", 100*p99)
	}
}

// fineSettle measures a stage's settling the way the evaluator does,
// but from a cold sim.Tran on the reference grid.
func fineSettle(st mdac.Stage) (float64, bool, error) {
	hold, err := st.HoldCircuit()
	if err != nil {
		return 0, false, err
	}
	window := st.Spec.TSlew + st.Spec.TSettle
	tStop, _ := st.SettleSpan()
	tr, err := sim.Tran(hold, sim.TranOpts{TStop: tStop, TStep: window / refStepsPerWindow, Probes: []string{mdac.NodeOut}})
	if err != nil {
		return 0, false, err
	}
	settle, ok, err := SettleTime(tr, mdac.NodeOut, mdac.StepDelay, st.Spec.SettleTol*st.IdealOutputStep())
	return settle, ok && settle <= window, err
}
