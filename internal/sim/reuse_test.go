package sim

import (
	"math"
	"math/rand"
	"testing"

	"pipesyn/internal/la"
	"pipesyn/internal/netlist"
)

// reuseDeck is a clocked switched-capacitor MOS deck exercising every
// stamp family the pattern recorder covers: MOS companions and Meyer
// caps, switches in both phases, caps, VCVS/VCCS, and sources.
const reuseDeck = `* sc integrator-ish reuse deck
V1 vdd 0 DC 3.3
VIN in 0 SIN(1.4 0.2 2e6)
S1 in a sw phase=1
S2 a 0 sw phase=2
C1 a b 1p
S3 b 0 sw phase=1
S4 b out sw phase=2
C2 out fb 2p
M1 x1 b tail 0 nch W=20u L=0.5u
M2 x2 fb tail 0 nch W=20u L=0.5u
M3 x1 x1 vdd vdd pch W=40u L=0.5u
M4 x2 x1 vdd vdd pch W=40u L=0.5u
M5 out x2 vdd vdd pch W=60u L=0.35u
M6 out bn 0 0 nch W=20u L=1u
M7 bn bn 0 0 nch W=5u L=1u
M8 tail bn 0 0 nch W=20u L=1u
IB vdd bn DC 20u
CL out 0 1p
.model sw sw (ron=1k roff=1e12)
.model nch nmos (vto=0.45 kp=180u)
.model pch pmos (vto=-0.5 kp=60u)
`

func parseDeck(t *testing.T, deck string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSymbolicCoversAssembled checks that the compile-time sparsity
// pattern covers every nonzero the DC and transient assemblers can
// produce, across random candidate states and all switch phases. A
// position outside the pattern would silently corrupt the sparse
// factorization, so this is the safety net for the pattern recorder.
func TestSymbolicCoversAssembled(t *testing.T) {
	c := parseDeck(t, reuseDeck)
	cc, err := compile(c)
	if err != nil {
		t.Fatal(err)
	}
	n := cc.layout.Size
	a := la.NewMatrix(n, n)
	b := make([]float64, n)
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		for i := range x {
			x[i] = 3.3 * (rng.Float64() - 0.2)
		}
		for phase := 0; phase <= 2; phase++ {
			for i := range a.Data {
				a.Data[i] = 0
			}
			stampDC(cc, a, b, x, 1e-12, 1, phase)
			if !covers(cc.sym, a) {
				t.Fatalf("trial %d phase %d: DC stamp has nonzero outside symbolic pattern", trial, phase)
			}
			// Transient assembly: phase base + companions + MOS tran stamps.
			copy(a.Data, cc.phaseBase(phase).Data)
			for i := 0; i < len(cc.layout.Nodes); i++ {
				a.Add(i, i, 1e-12)
			}
			for i := range b {
				b[i] = 0
			}
			tr := newTranRun(cc, TranOpts{}, x)
			tr.gk = 1e9
			tr.stampMOSTran(a, b, x)
			if !covers(cc.sym, a) {
				t.Fatalf("trial %d phase %d: tran stamp has nonzero outside symbolic pattern", trial, phase)
			}
		}
	}
}

// covers reports whether every nonzero of a lies inside sym's pattern:
// the product over the pattern with each unit vector must give back a's
// column exactly, since an entry outside the pattern reads as zero.
func covers(sym *la.Symbolic, a *la.Matrix) bool {
	n := a.Rows
	e, y := make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		sym.MulVecInto(y, a, e)
		e[j] = 0
		for i, v := range y {
			if v != a.At(i, j) {
				return false
			}
		}
	}
	return true
}

// oracle compiles c on the full-Newton oracle path: every Newton
// iteration refactors, as the solver did before factorization reuse
// became its only policy.
func oracle(t *testing.T, c *netlist.Circuit) *compiled {
	t.Helper()
	cc, err := compile(c)
	if err != nil {
		t.Fatal(err)
	}
	cc.fullNewton = true
	return cc
}

// TestNewtonReuseOPMatchesDefault: the reuse Newton — now the default
// and only production policy — must land on the same operating point as
// the historical default, the full-Newton oracle, within the solver's
// convergence tolerance. Both iterations share the same fixed point, but
// the stale-factor path stops when its (linearly contracting) step is
// small, so the landed point can differ by a few times the step
// tolerance at high-gain nodes.
func TestNewtonReuseOPMatchesDefault(t *testing.T) {
	c := parseDeck(t, reuseDeck)
	ref, err := opCompiled(oracle(t, c), DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OP(c, DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for node, v := range ref.V {
		g := got.V[node]
		if math.Abs(g-v) > 5e-3*(1+math.Abs(v)) {
			t.Errorf("node %s: reuse OP %.12g vs full-Newton oracle %.12g", node, g, v)
		}
	}
}

// TestNewtonReuseTranMatchesDefault: transient waveforms on the default
// reuse path must track the full-Newton oracle within the Newton step
// tolerance at every accepted step (same fixed point, looser landing —
// see the OP test above).
func TestNewtonReuseTranMatchesDefault(t *testing.T) {
	c := parseDeck(t, reuseDeck)
	opts := TranOpts{
		TStop: 1e-6, TStep: 2e-9,
		ClockPeriod: 1e-7, NonOverlap: 2e-9,
	}
	ref, err := tranCompiled(oracle(t, c), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Tran(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.T) != len(ref.T) {
		t.Fatalf("step counts differ: %d vs %d", len(got.T), len(ref.T))
	}
	for node, w := range ref.V {
		gw := got.V[node]
		for i := range w {
			// Tolerance is loose relative to the supply swing: the two
			// trajectories accumulate independent step-tolerance errors
			// through the capacitor memory, which amplify transiently at
			// clock-switch edges.
			if math.Abs(gw[i]-w[i]) > 2e-2*(1+math.Abs(w[i])) {
				t.Fatalf("node %s sample %d (t=%g): reuse %.9g vs full-Newton oracle %.9g",
					node, i, ref.T[i], gw[i], w[i])
			}
		}
	}
}

// TestTranFullNewtonBitIdenticalToDense: the full-Newton oracle on the
// sparse partial-pivot factorization must reproduce a dense solve
// exactly. The dense reference factors over a fully marked pattern, on
// which the pivot-exact sparse LU performs the dense LU's arithmetic
// (la.TestSparseMatchesDenseBitExact), so waveforms compare bitwise.
// The default reuse path must also be deterministic to the bit.
func TestTranFullNewtonBitIdenticalToDense(t *testing.T) {
	c := parseDeck(t, reuseDeck)
	opts := TranOpts{
		TStop: 5e-7, TStep: 2e-9,
		ClockPeriod: 1e-7, NonOverlap: 2e-9,
	}
	sparse := oracle(t, c)
	sparse.symOrd = nil
	dense := oracle(t, c)
	dense.symOrd = nil
	n := dense.layout.Size
	full := la.NewPattern(n)
	ones := la.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			full.Mark(i, j)
			ones.Add(i, j, 1)
		}
	}
	dense.sym = la.Analyze(full)
	if covers(sparse.sym, ones) {
		t.Fatal("the deck's pattern is already dense; the sparse path is not under test")
	}
	ref, err := tranCompiled(dense, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tranCompiled(sparse, opts)
	if err != nil {
		t.Fatal(err)
	}
	for node, w := range ref.V {
		gw := got.V[node]
		for i := range w {
			if math.Float64bits(gw[i]) != math.Float64bits(w[i]) {
				t.Fatalf("node %s sample %d: sparse %.17g vs dense %.17g", node, i, gw[i], w[i])
			}
		}
	}
	first, err := Tran(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Tran(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for node, w := range first.V {
		aw := again.V[node]
		for i := range w {
			if math.Float64bits(aw[i]) != math.Float64bits(w[i]) {
				t.Fatalf("node %s sample %d: default runs differ bitwise", node, i)
			}
		}
	}
}
