package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pipesyn/internal/netlist"
)

// batchVariant derives a sizing variant of reuseDeck by substituting
// device geometry and capacitor values. Structure (names, types, nodes)
// is untouched, which is the Kernel.Bind contract.
func batchVariant(t *testing.T, i int) string {
	t.Helper()
	switch i {
	case 0:
		return reuseDeck
	case 1:
		s := strings.ReplaceAll(reuseDeck, "M1 x1 b tail 0 nch W=20u L=0.5u", "M1 x1 b tail 0 nch W=28u L=0.4u")
		s = strings.ReplaceAll(s, "M2 x2 fb tail 0 nch W=20u L=0.5u", "M2 x2 fb tail 0 nch W=28u L=0.4u")
		s = strings.ReplaceAll(s, "C1 a b 1p", "C1 a b 1.5p")
		return s
	case 2:
		s := strings.ReplaceAll(reuseDeck, "M5 out x2 vdd vdd pch W=60u L=0.35u", "M5 out x2 vdd vdd pch W=90u L=0.3u")
		s = strings.ReplaceAll(s, "CL out 0 1p", "CL out 0 2.2p")
		s = strings.ReplaceAll(s, "IB vdd bn DC 20u", "IB vdd bn DC 35u")
		// A different switch on-resistance changes the per-phase stamps.
		s = strings.ReplaceAll(s, ".model sw sw (ron=1k roff=1e12)", ".model sw sw (ron=2.5k roff=1e12)")
		return s
	default:
		t.Fatalf("no variant %d", i)
		return ""
	}
}

// TestBatchBitIdenticalToStandalone: a batch of candidates bound in
// turn to one warm Kernel must reproduce a cold compile of each
// candidate to the bit — the operating point, and the transient started
// from the kernel's own t=0 operating point against a cold sim.Tran — in
// any binding order, and must do the same solver work (factorizations,
// reused solves, and pivot fallbacks), so no solver state carries
// across a rebind.
func TestBatchBitIdenticalToStandalone(t *testing.T) {
	decks := []string{batchVariant(t, 0), batchVariant(t, 1), batchVariant(t, 2)}
	var circuits []*netlist.Circuit
	for _, d := range decks {
		circuits = append(circuits, parseDeck(t, d))
	}
	k, err := NewKernel(circuits[0])
	if err != nil {
		t.Fatal(err)
	}
	tranOpts := TranOpts{
		TStop: 4e-7, TStep: 2e-9,
		ClockPeriod: 1e-7, NonOverlap: 2e-9,
	}
	t0Phase := DCOpts{SwitchPhase: ClockPhase(0, tranOpts.ClockPeriod, tranOpts.NonOverlap)}
	// Deliberately out of order to catch state leaking between bindings.
	for _, i := range []int{2, 0, 1, 2, 1} {
		if err := k.Bind(circuits[i]); err != nil {
			t.Fatal(err)
		}
		k0 := ReadKernelStats()
		refOP, err := OP(circuits[i], DCOpts{})
		if err != nil {
			t.Fatal(err)
		}
		refTr, err := Tran(circuits[i], tranOpts)
		if err != nil {
			t.Fatal(err)
		}
		k1 := ReadKernelStats()
		gotOP, err := k.OP(DCOpts{})
		if err != nil {
			t.Fatal(err)
		}
		op0, err := k.OP(t0Phase)
		if err != nil {
			t.Fatal(err)
		}
		gotTr, err := k.TranFrom(op0, tranOpts)
		if err != nil {
			t.Fatal(err)
		}
		if cold, warm := statsDelta(k0, k1), statsDelta(k1, ReadKernelStats()); cold != warm {
			t.Fatalf("cand %d: warm solver work %+v, cold %+v", i, warm, cold)
		}
		sameOP(t, fmt.Sprintf("cand %d", i), gotOP, refOP)
		sameTran(t, fmt.Sprintf("cand %d", i), gotTr, refTr)
	}
}

// statsDelta is the kernel-counter difference b − a.
func statsDelta(a, b KernelStats) KernelStats {
	return KernelStats{
		Factorizations:   b.Factorizations - a.Factorizations,
		ReusedSolves:     b.ReusedSolves - a.ReusedSolves,
		ReuseFallbacks:   b.ReuseFallbacks - a.ReuseFallbacks,
		OrderedFallbacks: b.OrderedFallbacks - a.OrderedFallbacks,
	}
}

// sameOP fails unless two operating points agree bitwise on every node
// voltage, branch current, and the Newton iteration count.
func sameOP(t *testing.T, label string, got, want *DCResult) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d Newton iterations vs %d cold", label, got.Iterations, want.Iterations)
	}
	for node, v := range want.V {
		if math.Float64bits(got.V[node]) != math.Float64bits(v) {
			t.Fatalf("%s OP node %s: warm %.17g vs cold %.17g", label, node, got.V[node], v)
		}
	}
	for br, v := range want.BranchI {
		if math.Float64bits(got.BranchI[br]) != math.Float64bits(v) {
			t.Fatalf("%s OP branch %s: warm %.17g vs cold %.17g", label, br, got.BranchI[br], v)
		}
	}
}

// sameTran fails unless two transient results agree bitwise at every
// sample of every node.
func sameTran(t *testing.T, label string, got, want *TranResult) {
	t.Helper()
	if len(got.T) != len(want.T) {
		t.Fatalf("%s: %d samples vs %d cold", label, len(got.T), len(want.T))
	}
	for node, w := range want.V {
		gw := got.V[node]
		for k := range w {
			if math.Float64bits(gw[k]) != math.Float64bits(w[k]) {
				t.Fatalf("%s node %s sample %d: warm %.17g vs cold %.17g", label, node, k, gw[k], w[k])
			}
		}
	}
}

// TestBatchRejectsStructureMismatch: binding a candidate that renames,
// retypes, or rewires an element must be rejected up front, and the
// kernel must keep solving its previous binding bit-identically.
func TestBatchRejectsStructureMismatch(t *testing.T) {
	base := parseDeck(t, reuseDeck)
	k, err := NewKernel(base)
	if err != nil {
		t.Fatal(err)
	}
	renamed := parseDeck(t, strings.Replace(reuseDeck, "CL out 0 1p", "CX out 0 1p", 1))
	if err := k.Bind(renamed); err == nil {
		t.Fatal("renamed element accepted by Bind")
	}
	rewired := parseDeck(t, strings.Replace(reuseDeck, "CL out 0 1p", "CL out vdd 1p", 1))
	if err := k.Bind(rewired); err == nil {
		t.Fatal("rewired element accepted by Bind")
	}
	want, err := OP(base, DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.OP(DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameOP(t, "after rejected binds", got, want)
}

// TestWarmRebindIterationDoesNotAllocate pins the rebound stamp path:
// Bind refills the element views in place — same backing storage, each
// MOS view holding exactly the model a cold compile of the new circuit
// builds — and a DC Newton iteration on the rebound kernel does zero
// heap allocations.
func TestWarmRebindIterationDoesNotAllocate(t *testing.T) {
	k, err := NewKernel(parseDeck(t, batchVariant(t, 0)))
	if err != nil {
		t.Fatal(err)
	}
	views := &k.cc.mosElems[0]
	next := parseDeck(t, batchVariant(t, 2))
	if err := k.Bind(next); err != nil {
		t.Fatal(err)
	}
	cc := k.cc
	if &cc.mosElems[0] != views {
		t.Fatal("Bind reallocated the MOS element views instead of refilling them")
	}
	cold, err := compile(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.mosElems) != len(cold.mosElems) {
		t.Fatalf("rebound kernel has %d MOS views, cold compile %d", len(cc.mosElems), len(cold.mosElems))
	}
	for i := range cold.mosElems {
		if cc.mosElems[i] != cold.mosElems[i] {
			t.Fatalf("MOS view %d after Bind %+v, cold compile %+v", i, cc.mosElems[i], cold.mosElems[i])
		}
	}
	if _, err := k.OP(DCOpts{}); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("rebound Newton iteration allocates %g objects, want 0", allocs)
	}
}

// TestWarmKernelTranFromRejectsForeignOP: TranFrom must refuse an
// operating point solved for another binding or another kernel — a
// stale start state would silently leak one candidate into the next.
func TestWarmKernelTranFromRejectsForeignOP(t *testing.T) {
	k, err := NewKernel(parseDeck(t, batchVariant(t, 0)))
	if err != nil {
		t.Fatal(err)
	}
	opts := TranOpts{TStop: 1e-8, TStep: 1e-9}
	stale, err := k.OP(DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Bind(parseDeck(t, batchVariant(t, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := k.TranFrom(stale, opts); err == nil {
		t.Fatal("TranFrom accepted an operating point of the previous binding")
	}
	foreign, err := OP(parseDeck(t, batchVariant(t, 1)), DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.TranFrom(foreign, opts); err == nil {
		t.Fatal("TranFrom accepted an operating point of another compile")
	}
	fresh, err := k.OP(DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.TranFrom(fresh, opts); err != nil {
		t.Fatalf("TranFrom rejected the current binding's operating point: %v", err)
	}
}
