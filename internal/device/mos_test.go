package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipesyn/internal/netlist"
)

// eval computes p's operating point at the given terminal voltages
// (drain, gate, source, bulk) through its compiled model, as the
// solvers do.
func eval(p MOSParams, vd, vg, vs, vb float64) OP {
	m := p.Compile()
	var op OP
	m.EvalInto(&op, vd, vg, vs, vb)
	return op
}

func nmos() MOSParams {
	return MOSParams{
		Name: "m1", W: 10e-6, L: 0.25e-6,
		VTO: 0.45, KP: 180e-6, Lambda: 0.06, Gamma: 0.45, Phi: 0.8,
		Cox: 6e-3, CGSO: 3e-10, CGDO: 3e-10, CJW: 8e-10,
	}
}

func pmos() MOSParams {
	p := nmos()
	p.PMOS = true
	p.VTO = -0.5
	p.KP = 60e-6
	return p
}

func TestRegions(t *testing.T) {
	m := nmos()
	if op := eval(m, 1.0, 0.2, 0, 0); op.Region != Cutoff {
		t.Fatalf("vgs<vth should be cutoff, got %v", op.Region)
	}
	if op := eval(m, 2.0, 1.0, 0, 0); op.Region != Saturation {
		t.Fatalf("vds>vov should be saturation, got %v", op.Region)
	}
	if op := eval(m, 0.1, 1.5, 0, 0); op.Region != Triode {
		t.Fatalf("small vds should be triode, got %v", op.Region)
	}
}

func TestSquareLawCurrent(t *testing.T) {
	m := nmos()
	m.Lambda = 0 // pure square law for the analytic check
	m.Gamma = 0
	vgs, vds := 1.0, 2.0
	op := eval(m, vds, vgs, 0, 0)
	k := m.KP * m.W / m.L
	want := 0.5 * k * (vgs - m.VTO) * (vgs - m.VTO)
	if math.Abs(op.ID-want)/want > 1e-12 {
		t.Fatalf("ID = %g, want %g", op.ID, want)
	}
	wantGM := k * (vgs - m.VTO)
	if math.Abs(op.GM-wantGM)/wantGM > 1e-12 {
		t.Fatalf("GM = %g, want %g", op.GM, wantGM)
	}
}

func TestPMOSSymmetry(t *testing.T) {
	// A PMOS biased mirror-image to an NMOS conducts the mirrored current.
	n := nmos()
	n.Gamma = 0
	p := pmos()
	p.Gamma = 0
	p.VTO = -n.VTO
	p.KP = n.KP
	nOp := eval(n, 1.5, 1.2, 0, 0)
	pOp := eval(p, -1.5, -1.2, 0, 0)
	if math.Abs(nOp.ID+pOp.ID) > 1e-15 {
		t.Fatalf("PMOS mirror ID = %g, want %g", pOp.ID, -nOp.ID)
	}
	if pOp.Region != Saturation {
		t.Fatalf("PMOS region = %v", pOp.Region)
	}
	// Conductances keep NMOS sign convention.
	if pOp.GM <= 0 || pOp.GDS < 0 {
		t.Fatalf("PMOS small-signal signs: gm=%g gds=%g", pOp.GM, pOp.GDS)
	}
}

func TestReverseModeContinuity(t *testing.T) {
	// Current must be an odd-ish continuous function through vds = 0.
	m := nmos()
	idPlus := eval(m, 1e-6, 1.5, 0, 0).ID
	idMinus := eval(m, -1e-6, 1.5, 0, 0).ID
	if idPlus <= 0 || idMinus >= 0 {
		t.Fatalf("sign error around vds=0: %g / %g", idPlus, idMinus)
	}
	if math.Abs(idPlus+idMinus) > 1e-3*math.Abs(idPlus) {
		t.Fatalf("discontinuity at vds=0: %g vs %g", idPlus, idMinus)
	}
}

// Property: analytic derivatives match finite differences in every region.
func TestDerivativesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := nmos()
		vg := r.Float64()*3 - 0.5
		vd := r.Float64()*3 - 0.5
		vb := -r.Float64() // reverse-biased bulk
		const h = 1e-7
		op := eval(m, vd, vg, 0, vb)
		// Skip points too close to a region boundary where the piecewise
		// model is legitimately non-differentiable.
		if math.Abs(op.VDS-op.VOV) < 1e-3 || math.Abs(op.VOV) < 1e-3 {
			return true
		}
		gmNum := (eval(m, vd, vg+h, 0, vb).ID - eval(m, vd, vg-h, 0, vb).ID) / (2 * h)
		gdsNum := (eval(m, vd+h, vg, 0, vb).ID - eval(m, vd-h, vg, 0, vb).ID) / (2 * h)
		gmbNum := (eval(m, vd, vg, 0, vb+h).ID - eval(m, vd, vg, 0, vb-h).ID) / (2 * h)
		scale := math.Abs(op.GM) + math.Abs(op.GDS) + 1e-9
		return math.Abs(op.GM-gmNum) < 1e-4*scale &&
			math.Abs(op.GDS-gdsNum) < 1e-4*scale &&
			math.Abs(op.GMB-gmbNum) < 1e-3*scale+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestBodyEffectRaisesVth(t *testing.T) {
	m := nmos()
	// Same vgs: more reverse bulk bias → less current.
	id0 := eval(m, 2, 1.2, 0, 0).ID
	id1 := eval(m, 2, 1.2, 0, -1).ID
	if id1 >= id0 {
		t.Fatalf("body effect missing: id(vbs=-1)=%g ≥ id(0)=%g", id1, id0)
	}
}

func TestCapacitances(t *testing.T) {
	m := nmos()
	sat := eval(m, 2, 1.2, 0, 0)
	tri := eval(m, 0.05, 2.0, 0, 0)
	off := eval(m, 2, 0, 0, 0)
	cch := m.Cox * m.W * m.L
	if math.Abs(sat.CGS-(2.0/3.0)*cch-m.CGSO*m.W) > 1e-20 {
		t.Fatalf("sat CGS = %g", sat.CGS)
	}
	if tri.CGD <= sat.CGD {
		t.Fatal("triode CGD should exceed saturation CGD (channel splits)")
	}
	if off.CGB != cch {
		t.Fatalf("cutoff CGB = %g, want %g", off.CGB, cch)
	}
	if sat.CDB <= 0 || sat.CSB <= 0 {
		t.Fatal("junction caps must be positive")
	}
}

func TestFromNetlist(t *testing.T) {
	deck := `* m
M1 d g s 0 nch W=20u L=0.5u
.model nch nmos (vto=0.4 kp=200u)
`
	c, err := netlist.Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	e := c.Elements[0]
	mod, _ := c.ModelFor(e)
	p, err := FromNetlist(e, mod)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.W-20e-6) > 1e-18 || math.Abs(p.L-0.5e-6) > 1e-18 || p.VTO != 0.4 {
		t.Fatalf("params = %+v", p)
	}
	// Missing W/L errors.
	bad := &netlist.Element{Name: "m2", Type: netlist.MOS, Nodes: []string{"d", "g", "s", "0"}}
	if _, err := FromNetlist(bad, mod); err == nil {
		t.Fatal("expected W/L error")
	}
	// Wrong element type errors.
	r := &netlist.Element{Name: "r1", Type: netlist.Resistor, Nodes: []string{"a", "b"}}
	if _, err := FromNetlist(r, mod); err == nil {
		t.Fatal("expected type error")
	}
}

func TestPMOSDefaults(t *testing.T) {
	deck := `* p
M1 d g s b pch W=20u L=0.5u
.model pch pmos ()
`
	c, _ := netlist.Parse(deck)
	e := c.Elements[0]
	mod, _ := c.ModelFor(e)
	p, err := FromNetlist(e, mod)
	if err != nil {
		t.Fatal(err)
	}
	if !p.PMOS || p.VTO >= 0 {
		t.Fatalf("PMOS defaults wrong: %+v", p)
	}
}

func TestSwitch(t *testing.T) {
	deck := `* sw
S1 a b swm phase=2
.model swm sw (ron=200 roff=1e9)
`
	c, _ := netlist.Parse(deck)
	e := c.Elements[0]
	mod, _ := c.ModelFor(e)
	sp := SwitchFromNetlist(e, mod)
	if sp.Phase != 2 || sp.Ron != 200 {
		t.Fatalf("switch params = %+v", sp)
	}
	if g := sp.Conductance(true); g != 1/200.0 {
		t.Fatalf("on conductance = %g", g)
	}
	if g := sp.Conductance(false); g != 1e-9 {
		t.Fatalf("off conductance = %g", g)
	}
}

func TestLambdaScalesWithLength(t *testing.T) {
	// Longer channel → less channel-length modulation → higher rout.
	short := nmos()
	long := nmos()
	long.L = 1e-6
	long.W = 40e-6 // same W/L
	gdsShort := eval(short, 2, 1.2, 0, 0).GDS
	gdsLong := eval(long, 2, 1.2, 0, 0).GDS
	if gdsLong >= gdsShort {
		t.Fatalf("gds(long)=%g should be < gds(short)=%g", gdsLong, gdsShort)
	}
}

func TestRegionString(t *testing.T) {
	if Cutoff.String() != "cutoff" || Saturation.String() != "saturation" || Triode.String() != "triode" {
		t.Fatal("Region strings")
	}
}
