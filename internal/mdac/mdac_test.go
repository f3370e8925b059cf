package mdac

import (
	"math"
	"testing"

	"pipesyn/internal/enum"
	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
)

// testStage builds a relaxed stage (late-pipeline 2-bit of a 10-bit ADC)
// so tests run fast and converge easily.
func testStage(t *testing.T) Stage {
	t.Helper()
	adc := stagespec.ADCSpec{Bits: 10, SampleRate: 40e6, VRef: 1}
	specs, err := stagespec.Translate(adc, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[2] // third stage: modest requirements
	p := pdk.TSMC025()
	sz := opamp.InitialSizing(p, opamp.BlockSpec{
		GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
		Gain: sp.GainMin, Swing: sp.SwingMin,
	})
	return Stage{Spec: sp, Sizing: sz, Process: p}
}

func TestHoldCircuitBiases(t *testing.T) {
	st := testStage(t)
	c, err := st.HoldCircuit()
	if err != nil {
		t.Fatal(err)
	}
	op, err := sim.OP(c, sim.DCOpts{})
	if err != nil {
		t.Fatalf("hold circuit failed to bias: %v", err)
	}
	vout := op.V[NodeOut]
	vsum := op.V[NodeSum]
	// DC unity feedback through rb: out ≈ inn ≈ VCM.
	if math.Abs(vout-VCM) > 0.15 || math.Abs(vsum-VCM) > 0.15 {
		t.Fatalf("bias point out=%g inn=%g, want ≈%g", vout, vsum, VCM)
	}
	if p := op.SupplyPower(c); p <= 0 {
		t.Fatalf("power = %g", p)
	}
}

func TestHoldCircuitSettlesToIdealStep(t *testing.T) {
	st := testStage(t)
	c, err := st.HoldCircuit()
	if err != nil {
		t.Fatal(err)
	}
	window := st.Spec.TSettle + st.Spec.TSlew
	tr, err := sim.Tran(c, sim.TranOpts{
		TStop: StepDelay + 2*window, TStep: window / 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.V[NodeOut]
	v0 := w[int(math.Round(StepDelay/2/tr.T[1]))] // the level before the step
	vEnd := w[len(w)-1]
	gotStep := v0 - vEnd // inverting stage: bottom plate up → output down
	want := st.IdealOutputStep()
	if math.Abs(gotStep-want)/want > 0.05 {
		t.Fatalf("output step = %g, want ≈ %g", gotStep, want)
	}
}

func TestLoopCircuitBuilds(t *testing.T) {
	st := testStage(t)
	c, err := st.LoopCircuit(50e-15)
	if err != nil {
		t.Fatal(err)
	}
	has := func(c *netlist.Circuit, name string) bool {
		for _, e := range c.Elements {
			if e.Name == name {
				return true
			}
		}
		return false
	}
	if !has(c, "cin") {
		t.Fatal("cin missing")
	}
	// cin omitted when non-positive.
	c2, err := st.LoopCircuit(0)
	if err != nil {
		t.Fatal(err)
	}
	if has(c2, "cin") {
		t.Fatal("cin should be absent for 0")
	}
	// The loop circuit shares amplifier element names with the hold
	// circuit, which is what lets operating points transfer.
	hold, _ := st.HoldCircuit()
	for _, name := range []string{"a.m1", "a.m5", "a.cc", "a.rz"} {
		if !has(c, name) || !has(hold, name) {
			t.Fatalf("element %s not shared between netlists", name)
		}
	}
}

func TestValidation(t *testing.T) {
	st := testStage(t)
	st.Process = nil
	if _, err := st.HoldCircuit(); err == nil {
		t.Fatal("expected nil-process error")
	}
	st = testStage(t)
	st.Spec.CFeed = 0
	if _, err := st.HoldCircuit(); err == nil {
		t.Fatal("expected bad-cap error")
	}
	st = testStage(t)
	st.Spec.Gain = 0.5
	if _, err := st.LoopCircuit(0); err == nil {
		t.Fatal("expected bad-gain error")
	}
}

func TestIdealOutputStep(t *testing.T) {
	st := testStage(t)
	// StepMax/Gain · Cs/Cf = StepMax/Gain · Gain = StepMax.
	if math.Abs(st.IdealOutputStep()-st.Spec.StepMax) > 1e-12 {
		t.Fatalf("ideal step = %g, want %g", st.IdealOutputStep(), st.Spec.StepMax)
	}
}
