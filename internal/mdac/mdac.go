// Package mdac builds the transistor-level test circuits for one pipeline
// stage's multiplying DAC: the hold-phase closed loop (amplifier with
// capacitive feedback, driven by a worst-case residue step) used for DC
// bias, power and transient settling, and the broken-loop netlist used for
// symbolic loop-gain extraction via DPI/SFG. Element names are shared
// between the two netlists so small-signal values extracted from the
// closed-loop operating point bind directly into the open-loop transfer
// function — the data flow at the heart of the paper's hybrid evaluation.
package mdac

import (
	"fmt"

	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/stagespec"
)

// AmpPrefix namespaces the amplifier devices inside generated netlists.
const AmpPrefix = "a."

// Node names used by the generated circuits.
const (
	NodeOut  = "out"
	NodeSum  = "inn" // summing node (amplifier inverting input)
	NodeStep = "vb"  // bottom plate of the sampling capacitor
	NodeFB   = "fb"  // summing node replica in the broken-loop netlist
	NodeDrv  = "inn" // driven amplifier input in the broken-loop netlist
)

// ElemCin names the broken-loop netlist's copy of the amplifier input
// capacitance (see LoopCircuit).
const ElemCin = "cin"

// VCM is the input/output common-mode bias. With an NMOS-input two-stage
// amplifier on a 3.3 V rail, 1.4 V keeps the pair, the tail sink and both
// output devices comfortably saturated.
const VCM = 1.4

// Stage couples a block spec with an amplifier sizing candidate. Any
// opamp.Amp topology rides the same circuits: the builders only rely on
// the shared port convention.
type Stage struct {
	Spec    stagespec.MDACSpec
	Sizing  opamp.Amp
	Process *pdk.Process
}

// StepDelay is when the residue step fires in transient tests. The hold
// circuit starts at its operating point, so the steps before the edge
// integrate nothing; 0.25 ns is four steps of the settling grid at
// 40 MS/s.
const StepDelay = 0.25e-9

// StepRise is the step source's rise time.
const StepRise = 50e-12

// SettleSpan is the transient every settling check of the hold circuit
// runs: from t = 0 to 1.5 settling windows (TSlew + TSettle) past the
// residue step, on fixed steps of window/200. The step is not a knob:
// hybrid's TestSettleAccuracyAgainstFineGrid holds the evaluator on this
// grid to a window/3200 reference.
func (st Stage) SettleSpan() (tStop, tStep float64) {
	window := st.Spec.TSlew + st.Spec.TSettle
	return StepDelay + 1.5*window, window / 200
}

// HoldCircuit builds the hold-phase closed loop:
//
//	vstep ──Cs──●──────┐
//	            │      │ (inn, summing node)
//	           Cf      ▷── amplifier ──●── out
//	            └──────┴───────────────┘
//	                                  CL to ground
//
// A large bias resistor parallels Cf so the amplifier finds a unity-
// feedback DC operating point (the standard SPICE trick for SC stages).
// Its value must be large against the feedback impedance at signal
// frequencies but small against the solver's gmin shunts (1 GΩ sits three
// decades below 1/gmin and three above 1/(2π·Cf·fs)). The step source
// carries both the transient PULSE (amplitude spec.StepMax/Gain, which
// produces a full-reference step at the output) and a unit AC magnitude so
// the same netlist serves closed-loop AC analysis.
func (st Stage) HoldCircuit() (*netlist.Circuit, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	p := st.Process
	c := netlist.New(fmt.Sprintf("mdac stage %d (%d-bit) hold phase", st.Spec.Stage, st.Spec.Bits))
	p.Attach(c)
	c.MustAdd(&netlist.Element{
		Name: "vdd", Type: netlist.VSource, Nodes: []string{"vdd", "0"},
		Src: &netlist.Source{DC: p.VDD},
	})
	c.MustAdd(&netlist.Element{
		Name: "vcm", Type: netlist.VSource, Nodes: []string{opamp.PortInP, "0"},
		Src: &netlist.Source{DC: VCM},
	})
	st.Sizing.Build(c, p, AmpPrefix)
	c.MustAdd(&netlist.Element{
		Name: "cf", Type: netlist.Capacitor,
		Nodes: []string{NodeOut, NodeSum}, Value: st.Spec.CFeed,
	})
	c.MustAdd(&netlist.Element{
		Name: "rb", Type: netlist.Resistor,
		Nodes: []string{NodeOut, NodeSum}, Value: 1e9,
	})
	c.MustAdd(&netlist.Element{
		Name: "cs", Type: netlist.Capacitor,
		Nodes: []string{NodeSum, NodeStep}, Value: st.Spec.CSample,
	})
	stepV := st.Spec.StepMax / st.Spec.Gain
	src := &netlist.Source{DC: VCM, ACMag: 1, Kind: netlist.SrcPulse}
	src.Pulse.V1 = VCM
	src.Pulse.V2 = VCM + stepV
	src.Pulse.TD = StepDelay
	src.Pulse.TR = StepRise
	src.Pulse.TF = StepRise
	src.Pulse.PW = 1 // single step within any realistic window
	src.Pulse.PER = 2
	c.MustAdd(&netlist.Element{
		Name: "vstep", Type: netlist.VSource, Nodes: []string{NodeStep, "0"}, Src: src,
	})
	c.MustAdd(&netlist.Element{
		Name: "cl", Type: netlist.Capacitor,
		Nodes: []string{NodeOut, "0"}, Value: st.Spec.CLoad,
	})
	return c, nil
}

// LoopCircuit builds the broken-loop netlist for loop-gain extraction: the
// amplifier's inverting input is driven directly (AC source), while the
// feedback network hangs off the output and terminates at a replica
// summing node "fb" loaded by the sampling capacitor and cin (the
// amplifier's input capacitance, passed in from the closed-loop operating
// point so the loop sees its real load). No bias resistor is present: this
// netlist is only analyzed symbolically with small-signal values imported
// from the closed-loop operating point, and omitting it keeps the DC loop
// gain reading at its true SC value β·A0. The loop gain is
// T(s) = −V(fb)/V(inn).
func (st Stage) LoopCircuit(cin float64) (*netlist.Circuit, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	p := st.Process
	c := netlist.New(fmt.Sprintf("mdac stage %d (%d-bit) loop gain", st.Spec.Stage, st.Spec.Bits))
	p.Attach(c)
	c.MustAdd(&netlist.Element{
		Name: "vdd", Type: netlist.VSource, Nodes: []string{"vdd", "0"},
		Src: &netlist.Source{DC: p.VDD},
	})
	c.MustAdd(&netlist.Element{
		Name: "vcm", Type: netlist.VSource, Nodes: []string{opamp.PortInP, "0"},
		Src: &netlist.Source{DC: VCM},
	})
	st.Sizing.Build(c, p, AmpPrefix)
	// Drive the inverting input directly.
	c.MustAdd(&netlist.Element{
		Name: "vx", Type: netlist.VSource, Nodes: []string{NodeDrv, "0"},
		Src: &netlist.Source{DC: VCM, ACMag: 1},
	})
	// Feedback network re-terminated at the replica node.
	c.MustAdd(&netlist.Element{
		Name: "cf", Type: netlist.Capacitor,
		Nodes: []string{NodeOut, NodeFB}, Value: st.Spec.CFeed,
	})
	c.MustAdd(&netlist.Element{
		Name: "cs", Type: netlist.Capacitor,
		Nodes: []string{NodeFB, "0"}, Value: st.Spec.CSample,
	})
	if cin > 0 {
		c.MustAdd(&netlist.Element{
			Name: ElemCin, Type: netlist.Capacitor,
			Nodes: []string{NodeFB, "0"}, Value: cin,
		})
	}
	c.MustAdd(&netlist.Element{
		Name: "cl", Type: netlist.Capacitor,
		Nodes: []string{NodeOut, "0"}, Value: st.Spec.CLoad,
	})
	return c, nil
}

func (st Stage) validate() error {
	if st.Process == nil {
		return fmt.Errorf("mdac: nil process")
	}
	if st.Sizing == nil {
		return fmt.Errorf("mdac: nil amplifier sizing")
	}
	sp := st.Spec
	if sp.CFeed <= 0 || sp.CSample <= 0 || sp.CLoad <= 0 {
		return fmt.Errorf("mdac: stage %d has non-positive capacitors", sp.Stage)
	}
	if sp.Gain < 1 {
		return fmt.Errorf("mdac: stage %d gain %g < 1", sp.Stage, sp.Gain)
	}
	return nil
}

// IdealOutputStep is the residue step the hold circuit should produce at
// the output once settled: stepV at the bottom plate times Cs/Cf.
func (st Stage) IdealOutputStep() float64 {
	return st.Spec.StepMax / st.Spec.Gain * (st.Spec.CSample / st.Spec.CFeed)
}
