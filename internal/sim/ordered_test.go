package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomizedDeck perturbs the reuse deck's geometry, capacitors, and
// bias in log space: structurally always the same circuit, numerically a
// fresh one each call.
func randomizedDeck(rng *rand.Rand) string {
	s := func(base float64) float64 { return base * math.Exp(rng.NormFloat64()*0.2) }
	return fmt.Sprintf(`* randomized ordered-pivot deck
V1 vdd 0 DC 3.3
VIN in 0 SIN(1.4 0.2 2e6)
S1 in a sw phase=1
S2 a 0 sw phase=2
C1 a b %.4gp
S3 b 0 sw phase=1
S4 b out sw phase=2
C2 out fb %.4gp
M1 x1 b tail 0 nch W=%.4gu L=0.5u
M2 x2 fb tail 0 nch W=%.4gu L=0.5u
M3 x1 x1 vdd vdd pch W=%.4gu L=0.5u
M4 x2 x1 vdd vdd pch W=%.4gu L=0.5u
M5 out x2 vdd vdd pch W=%.4gu L=0.35u
M6 out bn 0 0 nch W=%.4gu L=1u
M7 bn bn 0 0 nch W=5u L=1u
M8 tail bn 0 0 nch W=%.4gu L=1u
IB vdd bn DC %.4gu
CL out 0 1p
.model sw sw (ron=1k roff=1e12)
.model nch nmos (vto=0.45 kp=180u)
.model pch pmos (vto=-0.5 kp=60u)
`, s(1), s(2), s(20), s(20), s(40), s(40), s(60), s(20), s(20), s(20))
}

// TestOrderedPivotMatchesDefault is the sim-level equivalence contract
// for the static-ordered pivot path: across randomized sizings of the
// reuse deck, the DC operating point and transient waveforms solved
// with the ordered factorization must agree with the partial-pivot
// fallback to simulation accuracy. Both sides run the full-Newton
// oracle, so the comparison isolates the pivot order. (Pivot order
// changes rounding, so the comparison is tight-tolerance, not bitwise —
// the bitwise contract belongs to partial pivoting,
// TestTranFullNewtonBitIdenticalToDense.)
func TestOrderedPivotMatchesDefault(t *testing.T) {
	const tol = 1e-6
	rng := rand.New(rand.NewSource(42))
	topts := TranOpts{
		TStop: 2e-7, TStep: 1e-9,
		ClockPeriod: 1e-7, NonOverlap: 2e-9,
	}
	for trial := 0; trial < 5; trial++ {
		deck := randomizedDeck(rng)
		ccOrd, err := compile(parseDeck(t, deck))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ccOrd.symOrd == nil {
			t.Fatalf("trial %d: deck admits no static order; the ordered path is not under test", trial)
		}
		ccDef, err := compile(parseDeck(t, deck))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ccDef.symOrd = nil // force the partial-pivot fallback
		ccOrd.fullNewton, ccDef.fullNewton = true, true

		opOrd, err := opCompiled(ccOrd, DCOpts{})
		if err != nil {
			t.Fatalf("trial %d ordered OP: %v", trial, err)
		}
		opDef, err := opCompiled(ccDef, DCOpts{})
		if err != nil {
			t.Fatalf("trial %d default OP: %v", trial, err)
		}
		for node, v := range opDef.V {
			if !relClose(opOrd.V[node], v, tol) {
				t.Fatalf("trial %d OP node %s: ordered %.12g vs default %.12g", trial, node, opOrd.V[node], v)
			}
		}

		trOrd, err := tranCompiled(ccOrd, topts)
		if err != nil {
			t.Fatalf("trial %d ordered tran: %v", trial, err)
		}
		trDef, err := tranCompiled(ccDef, topts)
		if err != nil {
			t.Fatalf("trial %d default tran: %v", trial, err)
		}
		if len(trOrd.T) != len(trDef.T) {
			t.Fatalf("trial %d: transient lengths differ: %d vs %d", trial, len(trOrd.T), len(trDef.T))
		}
		for node, w := range trDef.V {
			ow := trOrd.V[node]
			for k := range w {
				if !relClose(ow[k], w[k], tol) {
					t.Fatalf("trial %d tran node %s sample %d: ordered %.12g vs default %.12g",
						trial, node, k, ow[k], w[k])
				}
			}
		}
	}
}

// relClose compares with relative tolerance and a small absolute floor
// (node voltages are O(1); sub-nanovolt disagreement is noise).
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*scale+1e-9
}
