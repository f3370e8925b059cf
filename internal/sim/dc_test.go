package sim

import (
	"math"
	"strings"
	"testing"

	"pipesyn/internal/device"
	"pipesyn/internal/netlist"
)

func mustParse(t *testing.T, deck string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Parse(deck)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return c
}

func mustOP(t *testing.T, c *netlist.Circuit, opts DCOpts) *DCResult {
	t.Helper()
	r, err := OP(c, opts)
	if err != nil {
		t.Fatalf("OP: %v", err)
	}
	return r
}

func TestDCResistorDivider(t *testing.T) {
	c := mustParse(t, `* divider
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 3k
`)
	r := mustOP(t, c, DCOpts{})
	if v := r.V["mid"]; math.Abs(v-7.5) > 1e-6 {
		t.Fatalf("mid = %g, want 7.5", v)
	}
	// Branch current through V1: 10V across 4k = 2.5 mA flowing in.
	if i := r.BranchI["v1"]; math.Abs(i+2.5e-3) > 1e-9 {
		t.Fatalf("I(V1) = %g, want -2.5m", i)
	}
	// Supply delivers 25 mW.
	if p := r.SupplyPower(c); math.Abs(p-25e-3) > 1e-9 {
		t.Fatalf("power = %g, want 25m", p)
	}
}

func TestDCCurrentSource(t *testing.T) {
	c := mustParse(t, `* isrc
I1 0 out DC 1m
R1 out 0 2k
`)
	r := mustOP(t, c, DCOpts{})
	v := r.V["out"]
	if math.Abs(v-2.0) > 1e-6 {
		t.Fatalf("out = %g, want 2 (1mA into 2k)", v)
	}
}

func TestDCVCVS(t *testing.T) {
	c := mustParse(t, `* vcvs
V1 in 0 DC 0.5
R1 in 0 1k
E1 out 0 in 0 10
R2 out 0 1k
`)
	r := mustOP(t, c, DCOpts{})
	v := r.V["out"]
	if math.Abs(v-5) > 1e-6 {
		t.Fatalf("out = %g, want 5", v)
	}
}

func TestDCVCCS(t *testing.T) {
	c := mustParse(t, `* vccs
V1 in 0 DC 1
R1 in 0 1k
G1 0 out in 0 2m
R2 out 0 1k
`)
	r := mustOP(t, c, DCOpts{})
	v := r.V["out"]
	// 2mA into 1k = 2V.
	if math.Abs(v-2) > 1e-6 {
		t.Fatalf("out = %g, want 2", v)
	}
}

func TestDCCapacitorOpen(t *testing.T) {
	c := mustParse(t, `* cap is open in DC
V1 in 0 DC 5
R1 in out 1k
C1 out 0 1p
R2 out 0 1k
`)
	r := mustOP(t, c, DCOpts{})
	v := r.V["out"]
	if math.Abs(v-2.5) > 1e-6 {
		t.Fatalf("out = %g, want 2.5", v)
	}
}

// Diode-connected NMOS: VGS solves 0.5k(VGS−VT)² = (VDD−VGS)/R.
func TestDCDiodeConnectedNMOS(t *testing.T) {
	c := mustParse(t, `* diode-connected
V1 vdd 0 DC 3.3
R1 vdd d 10k
M1 d d 0 0 nch W=10u L=1u
.model nch nmos (vto=0.45 kp=180u lambda=0 gamma=0)
`)
	r := mustOP(t, c, DCOpts{})
	v := r.V["d"]
	// Solve analytically: 0.5·180µ·(10/1)·(v−0.45)² = (3.3−v)/10k.
	k := 0.5 * 180e-6 * 10
	// Newton on the analytic equation for the reference value.
	ref := 0.7
	for i := 0; i < 50; i++ {
		f := k*(ref-0.45)*(ref-0.45) - (3.3-ref)/1e4
		df := 2*k*(ref-0.45) + 1/1e4
		ref -= f / df
	}
	if math.Abs(v-ref) > 1e-4 {
		t.Fatalf("VGS = %g, want %g", v, ref)
	}
	op := r.MOS["m1"]
	if op.Region != device.Saturation {
		t.Fatalf("diode-connected device must saturate, got %v", op.Region)
	}
	if op.ID <= 0 {
		t.Fatalf("ID = %g", op.ID)
	}
}

// Common-source amplifier with resistive load: check the bias point is
// consistent (KCL at drain) and gm matches the analytic square law.
func TestDCCommonSource(t *testing.T) {
	c := mustParse(t, `* common source
V1 vdd 0 DC 3.3
VG g 0 DC 0.9
RD vdd d 2k
M1 d g 0 0 nch W=20u L=0.5u
.model nch nmos (vto=0.45 kp=180u lambda=0.05 gamma=0)
`)
	r := mustOP(t, c, DCOpts{})
	vd := r.V["d"]
	op := r.MOS["m1"]
	// KCL: (3.3 − vd)/2k = ID.
	if math.Abs((3.3-vd)/2e3-op.ID) > 1e-9 {
		t.Fatalf("KCL violated: IR=%g ID=%g", (3.3-vd)/2e3, op.ID)
	}
	if op.Region != device.Saturation {
		t.Fatalf("region = %v", op.Region)
	}
}

// CMOS inverter-like stack: PMOS + NMOS both in saturation near midpoint.
func TestDCCMOSStack(t *testing.T) {
	c := mustParse(t, `* push-pull bias
V1 vdd 0 DC 3.3
VGN gn 0 DC 1.0
VGP gp 0 DC 2.3
M1 out gn 0 0 nch W=10u L=0.5u
M2 out gp vdd vdd pch W=30u L=0.5u
.model nch nmos (vto=0.45 kp=180u lambda=0.06)
.model pch pmos (vto=-0.5 kp=60u lambda=0.08)
`)
	r := mustOP(t, c, DCOpts{})
	v := r.V["out"]
	if v < 0.2 || v > 3.1 {
		t.Fatalf("out = %g, expected an intermediate bias point", v)
	}
	// NMOS sinks what PMOS sources.
	in := r.MOS["m1"].ID
	ip := r.MOS["m2"].ID
	if math.Abs(in+ip) > 1e-7 {
		t.Fatalf("stack KCL: In=%g Ip=%g", in, ip)
	}
}

func TestDCSwitchStates(t *testing.T) {
	deck := `* switch divider
V1 in 0 DC 1
S1 in out swm phase=1
R1 out 0 1k
.model swm sw (ron=1k roff=1e12)
`
	c := mustParse(t, deck)
	// Phase 1 active: divider 1k/1k → 0.5.
	r := mustOP(t, c, DCOpts{SwitchPhase: 1})
	v := r.V["out"]
	if math.Abs(v-0.5) > 1e-4 {
		t.Fatalf("on: out = %g, want 0.5", v)
	}
	// Phase 2 active: switch open → ~0.
	r = mustOP(t, c, DCOpts{SwitchPhase: 2})
	v = r.V["out"]
	if math.Abs(v) > 1e-3 {
		t.Fatalf("off: out = %g, want ≈0", v)
	}
}

func TestDCErrors(t *testing.T) {
	// Bad element values caught at compile.
	bad := mustParse(t, "R1 a 0 1k\n")
	bad.Elements[0].Value = -5
	if _, err := OP(bad, DCOpts{}); err == nil {
		t.Fatal("expected negative-resistance error")
	}
	// Empty circuit.
	if _, err := OP(netlist.New("empty"), DCOpts{}); err == nil {
		t.Fatal("expected empty-circuit error")
	}
	// Missing model.
	miss := mustParse(t, "M1 d g 0 0 nomodel W=1u L=1u\nV1 d 0 DC 1\nV2 g 0 DC 1\n")
	if _, err := OP(miss, DCOpts{}); err == nil {
		t.Fatal("expected missing-model error")
	}
}

// A bistable-ish positive feedback circuit exercises the continuation
// fallbacks; it must converge to some consistent solution.
func TestDCConvergenceFallbacks(t *testing.T) {
	c := mustParse(t, `* cross-coupled load
V1 vdd 0 DC 3.3
R1 vdd a 10k
R2 vdd b 10k
M1 a b 0 0 nch W=50u L=0.25u
M2 b a 0 0 nch W=50u L=0.25u
.model nch nmos (vto=0.45 kp=180u)
`)
	r := mustOP(t, c, DCOpts{})
	va := r.V["a"]
	vb := r.V["b"]
	// KCL at both drains must hold whatever branch was found.
	ia := r.MOS["m1"].ID
	if math.Abs((3.3-va)/1e4-ia) > 1e-7 {
		t.Fatalf("KCL at a: %g vs %g", (3.3-va)/1e4, ia)
	}
	ib := r.MOS["m2"].ID
	if math.Abs((3.3-vb)/1e4-ib) > 1e-7 {
		t.Fatalf("KCL at b: %g vs %g", (3.3-vb)/1e4, ib)
	}
}

// Starving Newton of iterations forces the continuation ladder (gmin and
// source stepping); the solver must either converge through it or return
// a descriptive error — never panic.
func TestDCContinuationLadder(t *testing.T) {
	c := mustParse(t, `* cross-coupled, hard from a flat start
V1 vdd 0 DC 3.3
R1 vdd a 10k
R2 vdd b 10k
M1 a b 0 0 nch W=50u L=0.25u
M2 b a 0 0 nch W=50u L=0.25u
.model nch nmos (vto=0.45 kp=180u)
`)
	r, err := OP(c, DCOpts{MaxIter: 6})
	if err != nil {
		if !strings.Contains(err.Error(), "converge") {
			t.Fatalf("unhelpful error: %v", err)
		}
		return
	}
	// If it converged, KCL must hold.
	va := r.V["a"]
	if math.Abs((3.3-va)/1e4-r.MOS["m1"].ID) > 1e-6 {
		t.Fatalf("ladder result violates KCL")
	}
}

// The continuation must eventually be exhausted on a truly broken setup,
// producing the state-describing error message.
func TestDCExhaustedError(t *testing.T) {
	c := mustParse(t, `* two-stage amp with 1-iteration budget
V1 vdd 0 DC 3.3
VG g 0 DC 0.9
RD vdd d 2k
M1 d g 0 0 nch W=20u L=0.5u
.model nch nmos (vto=0.45 kp=180u)
`)
	if _, err := OP(c, DCOpts{MaxIter: 1}); err == nil {
		t.Skip("converged in one iteration; nothing to assert")
	} else if !strings.Contains(err.Error(), "scale") && !strings.Contains(err.Error(), "converge") {
		t.Fatalf("error lacks diagnostics: %v", err)
	}
}
