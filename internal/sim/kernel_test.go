package sim

import (
	"math"
	"testing"

	"pipesyn/internal/device"
	"pipesyn/internal/la"
	"pipesyn/internal/netlist"
)

// kernelDeck exercises every element type the kernel splits between the
// constant stamp and the per-iteration stamp: resistors, capacitors,
// clocked switches, both independent sources, both controlled sources,
// and MOS devices — a switched-capacitor stage around the bench amp.
const kernelDeck = `* kernel reference deck
V1 vdd 0 DC 3.3
VIN in 0 DC 1.2 SIN 1.2 0.2 10e6
S1 in top swmod phase=1
S2 top fb swmod phase=2
CS top inn 0.5p
CF fb out 0.25p
E1 drv 0 x2 0 2
G1 x1 0 drv 0 1e-5
RB drv bias 10k
M1 x1 inn tail 0 nch W=20u L=0.5u
M2 x2 bias tail 0 nch W=20u L=0.5u
M3 x1 x1 vdd vdd pch W=40u L=0.5u
M4 x2 x1 vdd vdd pch W=40u L=0.5u
M5 out x2 vdd vdd pch W=60u L=0.35u
M6 out bn 0 0 nch W=20u L=1u
M7 bn bn 0 0 nch W=5u L=1u
M8 tail bn 0 0 nch W=20u L=1u
IB vdd bn DC 20u
CL out 0 1p
.model nch nmos (vto=0.45 kp=180u)
.model pch pmos (vto=-0.5 kp=60u)
.model swmod sw (ron=1k roff=1e12)
`

func compileDeck(t *testing.T, deck string) *compiled {
	t.Helper()
	c, err := netlist.Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// TestKernelStampMatchesReference checks the split baseline+MOS assembly
// against the single-pass reference assembler stampDC on every matrix
// and RHS entry. The two paths accumulate contributions in different
// orders, so agreement is to round-off, not bit-exact.
func TestKernelStampMatchesReference(t *testing.T) {
	cc := compileDeck(t, kernelDeck)
	n := cc.layout.Size
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.3 + 0.17*float64(i%7) // deterministic, devices span regions
	}
	for _, tc := range []struct {
		gmin, srcScale float64
		phase          int
	}{
		{1e-12, 1, 0},
		{1e-9, 0.7, 1},
		{1e-6, 0.25, 2},
	} {
		aRef := la.NewMatrix(n, n)
		bRef := make([]float64, n)
		stampDC(cc, aRef, bRef, x, tc.gmin, tc.srcScale, tc.phase)

		ws := cc.dcWS()
		ws.prepare(cc, tc.gmin, tc.srcScale, tc.phase)
		aK := &la.Matrix{Rows: n, Cols: n, Data: append([]float64(nil), ws.base.Data...)}
		bK := append([]float64(nil), ws.baseB...)
		stampMOS(cc, aK, bK, x)

		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !closeEnough(aK.At(i, j), aRef.At(i, j)) {
					t.Fatalf("phase=%d gmin=%g: A[%d,%d] kernel %g, reference %g",
						tc.phase, tc.gmin, i, j, aK.At(i, j), aRef.At(i, j))
				}
			}
			if !closeEnough(bK[i], bRef[i]) {
				t.Fatalf("phase=%d gmin=%g: b[%d] kernel %g, reference %g",
					tc.phase, tc.gmin, i, bK[i], bRef[i])
			}
		}
	}
}

// stampDC assembles the linearized MNA system at candidate solution x in
// one pass over the element list. Capacitors are open circuits in DC.
// The solver itself uses the split baseline+MOS kernel path (kernel.go);
// this single-pass assembler is the reference the kernel is tested
// against (TestKernelStampMatchesReference). It resolves the MOS models
// from the netlist itself rather than reading the kernel's element views,
// so a device bound to the wrong element cannot agree with it.
func stampDC(cc *compiled, a *la.Matrix, b []float64, x []float64, gmin, srcScale float64, switchPhase int) {
	l := cc.layout
	mos, _, err := resolveDevices(cc.circuit)
	if err != nil {
		panic(err)
	}
	// Gmin shunts keep floating nodes (e.g. capacitively driven gates)
	// weakly tied to ground.
	for i := 0; i < len(l.Nodes); i++ {
		a.Add(i, i, gmin)
	}
	for _, e := range cc.circuit.Elements {
		switch e.Type {
		case netlist.Resistor:
			stampConductance(a, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), 1/e.Value)
		case netlist.Capacitor:
			// open in DC
		case netlist.Switch:
			sw := cc.switches[e.Name]
			active := sw.Phase == 0 || sw.Phase == switchPhase
			stampConductance(a, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), sw.Conductance(active))
		case netlist.ISource:
			i0 := e.Src.DC * srcScale
			addRHS(b, l.idx(e.Nodes[0]), -i0)
			addRHS(b, l.idx(e.Nodes[1]), +i0)
		case netlist.VSource:
			br := l.BranchIndex[e.Name]
			stampVoltageBranch(a, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), br)
			b[br] += e.Src.DC * srcScale
		case netlist.VCVS:
			br := l.BranchIndex[e.Name]
			op, on := l.idx(e.Nodes[0]), l.idx(e.Nodes[1])
			cp, cn := l.idx(e.Nodes[2]), l.idx(e.Nodes[3])
			stampVoltageBranch(a, op, on, br)
			addA(a, br, cp, -e.Value)
			addA(a, br, cn, +e.Value)
		case netlist.VCCS:
			op, on := l.idx(e.Nodes[0]), l.idx(e.Nodes[1])
			cp, cn := l.idx(e.Nodes[2]), l.idx(e.Nodes[3])
			stampVCCS(a, op, on, cp, cn, e.Value)
		case netlist.MOS:
			d, g, s, bk := l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), l.idx(e.Nodes[2]), l.idx(e.Nodes[3])
			vd := nodeV(x, d)
			vg := nodeV(x, g)
			vs := nodeV(x, s)
			vb := nodeV(x, bk)
			var op device.OP
			mos[0].EvalInto(&op, vd, vg, vs, vb)
			mos = mos[1:]
			// Linearized companion: id ≈ ID + gm·Δvgs + gds·Δvds + gmb·Δvbs.
			stampVCCS(a, d, s, g, s, op.GM)
			stampConductance(a, d, s, op.GDS)
			stampVCCS(a, d, s, bk, s, op.GMB)
			ieq := op.ID - op.GM*(vg-vs) - op.GDS*(vd-vs) - op.GMB*(vb-vs)
			addRHS(b, d, -ieq)
			addRHS(b, s, +ieq)
		}
	}
}

func closeEnough(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= 1e-12*scale
}

// TestDCIterationDoesNotAllocate pins the acceptance criterion: once the
// workspace is warm, a DC Newton iteration on an MDAC-sized circuit does
// zero heap allocations.
func TestDCIterationDoesNotAllocate(t *testing.T) {
	cc := compileDeck(t, benchAmpDeck)
	opts := DCOpts{}
	opts.defaults()
	x0 := make([]float64, cc.layout.Size)
	sol, _, err := newton(cc, x0, gmin, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := cc.dcWS()
	ws.prepare(cc, gmin, 1, 0)
	copy(ws.x, sol)
	allocs := testing.AllocsPerRun(100, func() {
		if err := ws.iterate(cc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DC Newton iteration allocates %g objects, want 0", allocs)
	}
}

// TestTranStepDoesNotAllocate checks that an accepted transient step
// (baseline assembly, Newton loop, capacitor commit) is allocation-free
// once the run is warm.
func TestTranStepDoesNotAllocate(t *testing.T) {
	cc := compileDeck(t, benchAmpDeck)
	opts := DCOpts{}
	opts.defaults()
	x0 := make([]float64, cc.layout.Size)
	sol, _, err := newton(cc, x0, gmin, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	topts := TranOpts{TStop: 1e-9, TStep: 50e-12, MaxNewton: 80}
	tr := newTranRun(cc, topts, sol)
	x := append([]float64(nil), sol...)
	xNext := make([]float64, len(sol))
	// Warm step sizes the LU workspace and settles the companion state.
	if err := tr.advance(x, xNext, 0, topts.TStep, BackwardEuler, 0); err != nil {
		t.Fatal(err)
	}
	x, xNext = xNext, x
	tNow := topts.TStep
	allocs := testing.AllocsPerRun(100, func() {
		if err := tr.advance(x, xNext, tNow, topts.TStep, Trapezoidal, 0); err != nil {
			t.Fatal(err)
		}
		x, xNext = xNext, x
		tNow += topts.TStep
	})
	if allocs != 0 {
		t.Fatalf("accepted transient step allocates %g objects, want 0", allocs)
	}
}
