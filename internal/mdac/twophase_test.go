package mdac

import (
	"fmt"
	"math"
	"testing"

	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/sim"
)

// The transistor-level two-phase MDAC must realize the sampled-data
// transfer out = VCM + (Cs/Cf)(vin − vdac) the behavioral model assumes.
func TestTwoPhaseChargeTransfer(t *testing.T) {
	st := testStage(t)
	period := 2 * (st.Spec.TSettle + st.Spec.TSlew)
	nov := period / 50

	for _, tc := range []struct{ vin, vdac float64 }{
		{VCM + 0.10, VCM},        // pure amplification of a small input
		{VCM + 0.20, VCM + 0.25}, // DAC subtraction dominates
		{VCM - 0.15, VCM - 0.10},
	} {
		c, err := twoPhaseCircuit(st, tc.vin, tc.vdac)
		if err != nil {
			t.Fatal(err)
		}
		// Two full clock periods: settle the sample in the first φ1,
		// transfer in φ2; measure at the end of the first φ2.
		res, err := sim.Tran(c, sim.TranOpts{
			TStop: 1.0 * period, TStep: period / 800,
			ClockPeriod: period, NonOverlap: nov,
		})
		if err != nil {
			t.Fatalf("vin=%g vdac=%g: %v", tc.vin, tc.vdac, err)
		}
		// Sample the output just before φ2 ends; sample k lies at k·TStep.
		tMeasure := period - 2*nov
		got := res.V[NodeOut][int(math.Round(tMeasure/res.T[1]))]
		want := twoPhaseExpected(st, tc.vin, tc.vdac)
		// The relaxed test stage settles to ~1.6% tolerance; allow 4% of
		// the step plus a few mV of reset/charge-injection artifacts.
		tol := 0.04*math.Abs(want-VCM) + 5e-3
		if math.Abs(got-want) > tol {
			t.Fatalf("vin=%g vdac=%g: out=%g, want %g (±%g)", tc.vin, tc.vdac, got, want, tol)
		}
	}
}

// During φ1 the amplifier is reset: output and summing node sit at VCM.
func TestTwoPhaseResetState(t *testing.T) {
	st := testStage(t)
	period := 2 * (st.Spec.TSettle + st.Spec.TSlew)
	c, err := twoPhaseCircuit(st, VCM+0.2, VCM)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Tran(c, sim.TranOpts{
		TStop: period / 2, TStep: period / 800,
		ClockPeriod: period, NonOverlap: period / 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Late in φ1 everything is reset near VCM and the sampling cap's
	// bottom plate tracks vin.
	k := int(math.Round(0.4 * period / res.T[1]))
	vout, vsum, vbot := res.V[NodeOut][k], res.V[NodeSum][k], res.V["csbot"][k]
	if math.Abs(vout-VCM) > 0.02 || math.Abs(vsum-VCM) > 0.02 {
		t.Fatalf("reset state out=%g sum=%g, want ≈%g", vout, vsum, VCM)
	}
	if math.Abs(vbot-(VCM+0.2)) > 0.01 {
		t.Fatalf("bottom plate %g should track vin %g", vbot, VCM+0.2)
	}
}

// twoPhaseCircuit builds the complete switched-capacitor MDAC with its
// clocked switches, operating on the standard two-phase cycle:
//
//	φ1 (sample):  Cs bottom plate ← vin,  summing node ← VCM,
//	              Cf shorted (amplifier reset)
//	φ2 (hold):    Cs bottom plate ← vdac, amplifier closes the loop
//	              through Cf
//
// Charge conservation then gives out = VCM + (Cs/Cf)·(vin − vdac), the
// stage's residue with gain Cs/Cf = 2^(m−1). The hold-phase evaluation
// circuits (HoldCircuit/LoopCircuit) abstract the φ1 machinery away for
// synthesis speed; this netlist proves, at transistor level, that the
// sampled-data behaviour the behavioral model assumes actually emerges
// from the switch timing, and it is what keeps sim's clock path tested.
// vin and vdac are DC levels.
func twoPhaseCircuit(st Stage, vin, vdac float64) (*netlist.Circuit, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	p := st.Process
	c := netlist.New(fmt.Sprintf("mdac stage %d (%d-bit) two-phase", st.Spec.Stage, st.Spec.Bits))
	p.Attach(c)
	c.MustAdd(&netlist.Element{
		Name: "vdd", Type: netlist.VSource, Nodes: []string{"vdd", "0"},
		Src: &netlist.Source{DC: p.VDD},
	})
	c.MustAdd(&netlist.Element{
		Name: "vcm", Type: netlist.VSource, Nodes: []string{opamp.PortInP, "0"},
		Src: &netlist.Source{DC: VCM},
	})
	c.MustAdd(&netlist.Element{
		Name: "vin", Type: netlist.VSource, Nodes: []string{"vin", "0"},
		Src: &netlist.Source{DC: vin},
	})
	c.MustAdd(&netlist.Element{
		Name: "vdac", Type: netlist.VSource, Nodes: []string{"vdac", "0"},
		Src: &netlist.Source{DC: vdac},
	})
	st.Sizing.Build(c, p, AmpPrefix)

	// Capacitor network: Cs from the summing node to its bottom plate,
	// Cf from output to summing node.
	c.MustAdd(&netlist.Element{
		Name: "cs", Type: netlist.Capacitor,
		Nodes: []string{NodeSum, "csbot"}, Value: st.Spec.CSample,
	})
	c.MustAdd(&netlist.Element{
		Name: "cf", Type: netlist.Capacitor,
		Nodes: []string{NodeOut, NodeSum}, Value: st.Spec.CFeed,
	})
	c.MustAdd(&netlist.Element{
		Name: "cl", Type: netlist.Capacitor,
		Nodes: []string{NodeOut, "0"}, Value: st.Spec.CLoad,
	})

	sw := func(name, a, b string, phase int) {
		c.MustAdd(&netlist.Element{
			Name: name, Type: netlist.Switch, Nodes: []string{a, b},
			Model:  "swideal",
			Params: map[string]float64{"phase": float64(phase)},
		})
	}
	// φ1: sample vin, pin the summing node to VCM, reset Cf.
	sw("s1", "csbot", "vin", 1)
	sw("s2", NodeSum, opamp.PortInP, 1) // summing node to the VCM rail
	sw("s3", NodeOut, NodeSum, 1)       // short Cf: amplifier reset
	// φ2: transfer charge against the DAC level.
	sw("s4", "csbot", "vdac", 2)
	return c, nil
}

// twoPhaseExpected returns the ideal settled output of the two-phase
// stage for the given input and DAC levels.
func twoPhaseExpected(st Stage, vin, vdac float64) float64 {
	return VCM + st.Spec.CSample/st.Spec.CFeed*(vin-vdac)
}
