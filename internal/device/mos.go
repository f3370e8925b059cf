// Package device implements the MOSFET model used across DC, AC and
// transient analyses: a LEVEL-1 square-law model with channel-length
// modulation and body effect, the classic choice for a 0.25 µm synthesis
// flow where the optimizer cares about gm/ID-level fidelity rather than
// deep-submicron second-order effects. The model supports both carrier
// polarities and reverse (drain/source-swapped) operation so Newton
// iterations can wander without breaking derivative consistency.
package device

import (
	"fmt"
	"math"

	"pipesyn/internal/netlist"
)

// Region labels the DC operating region of a MOSFET.
type Region int

const (
	Cutoff Region = iota
	Triode
	Saturation
)

func (r Region) String() string {
	switch r {
	case Cutoff:
		return "cutoff"
	case Triode:
		return "triode"
	case Saturation:
		return "saturation"
	}
	return "?"
}

// MOSParams collects the electrical parameters of one sized transistor.
type MOSParams struct {
	Name   string
	PMOS   bool
	W, L   float64 // metres
	VTO    float64 // zero-bias threshold; negative for PMOS
	KP     float64 // transconductance parameter µCox, A/V²
	Lambda float64 // channel-length modulation, 1/V (per unit L at Lref)
	Gamma  float64 // body-effect coefficient, √V
	Phi    float64 // surface potential, V
	Cox    float64 // gate-oxide capacitance per area, F/m²
	CGSO   float64 // gate-source overlap, F/m
	CGDO   float64 // gate-drain overlap, F/m
	CJW    float64 // junction capacitance per device width, F/m
}

// FromNetlist builds MOSParams from an element and its .model card.
// W and L are required on the instance; everything else defaults to a
// generic 0.25 µm-class value so hand-written decks stay terse.
func FromNetlist(e *netlist.Element, m *netlist.Model) (MOSParams, error) {
	if e.Type != netlist.MOS {
		return MOSParams{}, fmt.Errorf("device: element %s is not a MOSFET", e.Name)
	}
	w := e.Param("w", 0)
	l := e.Param("l", 0)
	if w <= 0 || l <= 0 {
		return MOSParams{}, fmt.Errorf("device: %s needs positive W and L", e.Name)
	}
	pmos := m.Type == "pmos"
	vtoDef := 0.45
	kpDef := 180e-6
	if pmos {
		vtoDef = -0.5
		kpDef = 60e-6
	}
	p := MOSParams{
		Name:   e.Name,
		PMOS:   pmos,
		W:      w,
		L:      l,
		VTO:    m.Param("vto", vtoDef),
		KP:     m.Param("kp", kpDef),
		Lambda: m.Param("lambda", 0.06),
		Gamma:  m.Param("gamma", 0.45),
		Phi:    m.Param("phi", 0.8),
		Cox:    m.Param("cox", 6e-3),
		CGSO:   m.Param("cgso", 3e-10),
		CGDO:   m.Param("cgdo", 3e-10),
		CJW:    m.Param("cjw", 8e-10),
	}
	return p, nil
}

// OP is a MOSFET DC operating point with the small-signal parameters that
// both the AC analysis and the DPI/SFG symbolic flow consume. ID is the
// current into the drain terminal.
type OP struct {
	ID     float64
	GM     float64 // ∂ID/∂VGS
	GDS    float64 // ∂ID/∂VDS
	GMB    float64 // ∂ID/∂VBS
	Region Region
	VGS    float64
	VDS    float64
	VOV    float64 // overdrive of the conducting mode
	// Terminal capacitances at the operating point.
	CGS, CGD, CGB, CDB, CSB float64
}

// Eval computes the operating point at the given terminal voltages
// (drain, gate, source, bulk, all referred to ground). It compiles p on
// every call; solvers that evaluate one device repeatedly hold the
// MOSModel from Compile instead.
func (p *MOSParams) Eval(vd, vg, vs, vb float64) OP {
	m := p.Compile()
	var op OP
	m.EvalInto(&op, vd, vg, vs, vb)
	return op
}

// MOSModel is a MOSParams compiled for evaluation: the polarity and the
// derived constants (KP·W/L, λ·Lref/L, √φ, the geometry capacitances)
// computed once, so the per-Newton-iteration stamp reads eleven floats
// instead of recomputing them from the parameter card.
type MOSModel struct {
	pol     float64 // +1 NMOS, −1 PMOS
	vtoN    float64 // threshold in the mapped-NMOS frame
	gamma   float64
	phi     float64
	sqrtPhi float64
	k       float64 // KP·W/L
	lam     float64 // Lambda·0.25µm/L: λ scales inversely with channel length
	cch     float64 // Cox·W·L
	cgsoW   float64 // CGSO·W
	cgdoW   float64 // CGDO·W
	cjwW    float64 // CJW·W
}

// Compile precomputes the constants MOSModel.EvalInto reads.
func (p *MOSParams) Compile() MOSModel {
	pol, vtoN := 1.0, p.VTO
	if p.PMOS {
		pol, vtoN = -1, -p.VTO // in the mapped NMOS frame the threshold is positive
	}
	return MOSModel{
		pol: pol, vtoN: vtoN,
		gamma: p.Gamma, phi: p.Phi, sqrtPhi: math.Sqrt(p.Phi),
		k:   p.KP * p.W / p.L,
		lam: p.Lambda * 0.25e-6 / p.L,
		cch: p.Cox * p.W * p.L, cgsoW: p.CGSO * p.W, cgdoW: p.CGDO * p.W, cjwW: p.CJW * p.W,
	}
}

// EvalInto computes the operating point at the given terminal voltages
// into op: polarity mapping, drain/source reverse swap, the square-law
// forward equations, and the Meyer capacitances.
func (m *MOSModel) EvalInto(op *OP, vd, vg, vs, vb float64) {
	// Map to an equivalent NMOS problem.
	pol := m.pol
	vgs := pol * (vg - vs)
	vds := pol * (vd - vs)
	vbs := pol * (vb - vs)
	reverse := vds < 0
	if reverse {
		// Swap source and drain: the device is symmetric.
		vgs, vds, vbs = vgs-vds, -vds, vbs-vds
	}
	// Body effect: vth = VTO + γ(√(φ−vbs) − √φ). Clamp the sqrt argument;
	// the derivative is taken on the clamped branch which keeps Newton
	// consistent.
	arg := m.phi - vbs
	var dvthDvbs float64
	if arg < 1e-6 {
		arg = 1e-6
	} else {
		dvthDvbs = -m.gamma / (2 * math.Sqrt(arg))
	}
	vth := m.vtoN + m.gamma*(math.Sqrt(arg)-m.sqrtPhi)
	vov := vgs - vth
	k, lam := m.k, m.lam
	var id, gm, gds, gmb float64
	var region Region
	switch {
	case vov <= 0:
		region = Cutoff
		// A tiny subthreshold-ish conductance keeps the Jacobian
		// non-singular when a device turns off mid-iteration.
		const gleak = 1e-12
		id = gleak * vds
		gds = gleak
	case vds >= vov:
		region = Saturation
		cm := 1 + lam*vds
		id = 0.5 * k * vov * vov * cm
		gm = k * vov * cm
		gds = 0.5 * k * vov * vov * lam
		gmb = gm * (-dvthDvbs) // ∂id/∂vbs = −gm·∂vth/∂vbs
	default:
		region = Triode
		cm := 1 + lam*vds
		base := vov*vds - 0.5*vds*vds
		id = k * base * cm
		gm = k * vds * cm
		gds = k*(vov-vds)*cm + k*base*lam
		gmb = gm * (-dvthDvbs)
	}
	if reverse {
		// Chain rule back to the original terminal ordering:
		// ∂(−f(vgs−vds, −vds, vbs−vds))/∂vds = f_g + f_d + f_b.
		id, gm, gds, gmb = -id, -gm, gm+gds+gmb, -gmb
	}
	op.ID = pol * id
	op.GM, op.GDS, op.GMB = gm, gds, gmb
	op.Region = region
	op.VGS = vgs
	op.VDS = vds
	op.VOV = vov
	// Meyer-style piecewise capacitances: the channel splits
	// 2/3-to-source in saturation and half/half in triode, plus constant
	// overlap and junction terms.
	switch region {
	case Cutoff:
		op.CGB = m.cch
		op.CGS = m.cgsoW
		op.CGD = m.cgdoW
	case Saturation:
		op.CGS = (2.0/3.0)*m.cch + m.cgsoW
		op.CGD = m.cgdoW
		op.CGB = 0
	case Triode:
		op.CGS = 0.5*m.cch + m.cgsoW
		op.CGD = 0.5*m.cch + m.cgdoW
		op.CGB = 0
	}
	op.CDB = m.cjwW
	op.CSB = m.cjwW
}

// SwitchParams models an ideal clocked switch as a two-state resistor.
type SwitchParams struct {
	Ron, Roff float64
	Phase     int // which non-overlapping clock phase closes it (1 or 2); 0 = always on
}

// SwitchFromNetlist extracts switch parameters from an element/model pair.
func SwitchFromNetlist(e *netlist.Element, m *netlist.Model) SwitchParams {
	return SwitchParams{
		Ron:   m.Param("ron", 1e3),
		Roff:  m.Param("roff", 1e12),
		Phase: int(e.Param("phase", 0)),
	}
}

// Conductance returns the switch conductance given whether its phase is
// active.
func (s SwitchParams) Conductance(active bool) float64 {
	if active {
		return 1 / s.Ron
	}
	return 1 / s.Roff
}
