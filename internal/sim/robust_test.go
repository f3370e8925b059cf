package sim

import (
	"errors"
	"math"
	"testing"
)

// TestDCConvergenceErrorTyped starves Newton of iterations and checks
// the failure surfaces as a *ConvergenceError carrying the analysis
// kind, the iteration budget, and the worst node — the typed signal
// that lets the synthesis engine treat it as an infeasible candidate
// instead of an engine fault.
func TestDCConvergenceErrorTyped(t *testing.T) {
	c := mustParse(t, `* divider
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 3k
`)
	_, err := OP(c, DCOpts{MaxIter: 1})
	if err == nil {
		t.Fatal("OP with a 1-iteration budget converged")
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want wrapped *ConvergenceError", err)
	}
	if ce.Analysis != "dc" || ce.Iterations != 1 {
		t.Fatalf("ConvergenceError = %+v", ce)
	}
	if ce.WorstNode != "in" {
		t.Fatalf("worst node %q, want the 10 V source node \"in\"", ce.WorstNode)
	}
	if ce.WorstDelta <= 0 {
		t.Fatalf("worst delta %g, want > 0", ce.WorstDelta)
	}
}

// TestTranConvergenceErrorTyped does the same for the transient solver:
// a 1-iteration Newton budget cannot track a moving source even after
// the halving rescue, and the resulting error names the time point.
func TestTranConvergenceErrorTyped(t *testing.T) {
	c := mustParse(t, `* rc step
V1 in 0 PWL(0 0 1n 5)
R1 in out 1k
C1 out 0 1n
`)
	_, err := Tran(c, TranOpts{TStop: 100e-9, TStep: 10e-9, useICs: true, MaxNewton: 1})
	if err == nil {
		t.Fatal("transient with a 1-iteration Newton budget converged")
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConvergenceError", err)
	}
	if ce.Analysis != "transient" || ce.Time <= 0 {
		t.Fatalf("ConvergenceError = %+v", ce)
	}
	// An engine fault — here a malformed window — must NOT classify as a
	// convergence failure.
	if _, err := Tran(c, TranOpts{TStop: -1, TStep: 1e-9}); err == nil || errors.As(err, new(*ConvergenceError)) {
		t.Fatalf("bad-window error misclassified: %v", err)
	}
}

// TestTranGminConfigurable: a capacitively coupled node is held up only
// by the gmin shunt. The transient's floor is the DC solver's (gmin,
// 1e-12 S), which keeps the node essentially frozen over microseconds:
// τ = C/gmin is a thousand seconds.
func TestTranGminConfigurable(t *testing.T) {
	c := mustParse(t, `* floating cap node
V1 in 0 PWL(0 0 1n 1)
C1 in out 1n
`)
	res, err := Tran(c, TranOpts{TStop: 5e-6, TStep: 10e-9, useICs: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := sample(t, res, "out", 5e-6); v < 0.9 { // the node holds its coupled step
		t.Fatalf("gmin leaked the floating node to %g V", v)
	}
}

// TestTranFinalSampleClamped pins the transient window contract: when
// TStop is not an integer multiple of TStep the rounded step count used
// to record a final sample past TStop; now the last step shortens and
// the final sample lands exactly on TStop.
func TestTranFinalSampleClamped(t *testing.T) {
	c := mustParse(t, `* rc
V1 in 0 DC 5
R1 in out 1k
C1 out 0 1n
`)
	const tStop, tStep = 1e-6, 0.35e-6 // round(1/0.35)=3 steps → nominal last t = 1.05 µs
	res, err := Tran(c, TranOpts{TStop: tStop, TStep: tStep, useICs: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.T[len(res.T)-1]; got != tStop {
		t.Fatalf("final sample at t=%g, want exactly TStop=%g", got, tStop)
	}
	for i, tp := range res.T {
		if tp > tStop {
			t.Fatalf("sample %d at t=%g exceeds TStop", i, tp)
		}
		if i > 0 && tp <= res.T[i-1] {
			t.Fatalf("time axis not strictly increasing at %d", i)
		}
	}
	// Integer-multiple windows keep their exact grid (no behavior change).
	c2 := mustParse(t, `* rc
V1 in 0 DC 5
R1 in out 1k
C1 out 0 1n
`)
	res2, err := Tran(c2, TranOpts{TStop: 1e-6, TStep: 0.25e-6, useICs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.T) != 5 || res2.T[4] != 1e-6 {
		t.Fatalf("integer window grid changed: %v", res2.T)
	}
}

// TestPWLDuplicateTimePoints: two PWL points sharing a time encode an
// instantaneous step. Evaluation must take the later point's value
// instead of dividing by zero and propagating NaN into the solve.
func TestPWLDuplicateTimePoints(t *testing.T) {
	c := mustParse(t, `* pwl step
V1 in 0 PWL(0 0 1u 0 1u 1 2u 1)
R1 in out 1k
C1 out 0 1n
`)
	s := c.Elements[0].Src
	for _, tc := range []struct{ t, want float64 }{
		{0, 0}, {0.5e-6, 0}, {1e-6, 1}, {1.5e-6, 1}, {3e-6, 1},
	} {
		got := sourceValue(s, tc.t)
		if math.IsNaN(got) {
			t.Fatalf("sourceValue(t=%g) is NaN", tc.t)
		}
		if got != tc.want {
			t.Fatalf("sourceValue(t=%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
	// End to end: the step must propagate a finite RC response.
	res, err := Tran(c, TranOpts{TStop: 4e-6, TStep: 10e-9, useICs: true})
	if err != nil {
		t.Fatal(err)
	}
	v := sample(t, res, "out", 4e-6)
	if math.IsNaN(v) || math.Abs(v-1) > 0.05 {
		t.Fatalf("out(4µs) = %g, want ≈1 (τ=1µs after the step)", v)
	}
}
