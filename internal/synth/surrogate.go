// Deterministic quadratic surrogate for the sizing search: a
// per-coordinate quadratic model over the log-space design vectors the
// annealer has already paid to evaluate, proposing the model minimizer
// as a candidate sizing every few moves. This is the cheap Go analogue
// of the HEBO-style Bayesian sizing loop (SNIPPETS.md Snippet 2): the
// model is fit with exact least squares over an order-pinned history —
// no randomness, no iterative solvers — so a surrogate-guided run is
// exactly reproducible and stays bit-identical for any worker count.
package synth

import (
	"math"

	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
)

const (
	// surrogateWindow bounds the evaluation history the model fits on:
	// recent evaluations describe the current basin; ancient ones from a
	// hot annealing phase would drag the fit toward stale geometry.
	surrogateWindow = 64
	// surrogatePeriod is how many annealer moves separate two surrogate
	// proposals; the moves in between feed the model.
	surrogatePeriod = 8
	// surrogateMinFit is the observation count below which the model
	// stays silent — a quadratic through too few points extrapolates
	// wildly.
	surrogateMinFit = 8
	// surrogateTrust clamps a proposal to this log-space distance from
	// the incumbent per coordinate (~1.65× either way in linear units):
	// the model is only trusted near the data that fit it.
	surrogateTrust = 0.5
)

// surrogate accumulates (log-sizing, cost) observations in a ring and
// proposes the per-coordinate quadratic minimizer around an incumbent.
// Not safe for concurrent use; each restart owns one.
type surrogate struct {
	dims int
	xs   [][]float64 // log-space sizing vectors (ring, insertion order)
	ys   []float64   // scalar costs
	next int         // overwrite cursor once the ring is full

	proposals int // proposals issued to the evaluator
	accepted  int // proposals the annealer accepted as incumbent
}

func newSurrogate(dims int) *surrogate {
	return &surrogate{dims: dims}
}

// observe folds one completed evaluation into the history. Failed or
// unbounded-cost candidates carry no gradient information and are
// skipped.
func (s *surrogate) observe(sc scored) {
	if s == nil || sc.err != nil {
		return
	}
	if math.IsInf(sc.cost, 0) || math.IsNaN(sc.cost) {
		return
	}
	x := make([]float64, s.dims)
	for i, val := range sc.sizing.Vector() {
		if val <= 0 {
			return
		}
		x[i] = math.Log(val)
	}
	if len(s.xs) < surrogateWindow {
		s.xs = append(s.xs, x)
		s.ys = append(s.ys, sc.cost)
		return
	}
	s.xs[s.next] = x
	s.ys[s.next] = sc.cost
	s.next = (s.next + 1) % surrogateWindow
}

// propose fits the model and returns the trust-clamped minimizer around
// the incumbent, or ok=false when there is not enough history, no
// coordinate has a convex fit that moves, or the rebuilt sizing is
// invalid.
func (s *surrogate) propose(incumbent opamp.Amp, proc *pdk.Process) (opamp.Amp, bool) {
	if s == nil || len(s.ys) < surrogateMinFit {
		return opamp.Amp{}, false
	}
	v := incumbent.Vector()
	moved := false
	out := make([]float64, s.dims)
	for d := 0; d < s.dims; d++ {
		xi := math.Log(v[d])
		out[d] = v[d]
		xStar, ok := s.fitDim(d)
		if !ok {
			continue
		}
		// Trust region: the quadratic is a local story.
		if xStar > xi+surrogateTrust {
			xStar = xi + surrogateTrust
		}
		if xStar < xi-surrogateTrust {
			xStar = xi - surrogateTrust
		}
		if math.Abs(xStar-xi) < 1e-12 {
			continue
		}
		out[d] = math.Exp(xStar)
		moved = true
	}
	if !moved {
		return opamp.Amp{}, false
	}
	cand, err := opamp.FromVector(out)
	if err != nil {
		return opamp.Amp{}, false
	}
	return cand.Clamp(proc), true
}

// fitDim least-squares fits y ≈ a·x² + b·x + c over the history's
// coordinate d and returns the minimizer -b/(2a) when the fit is
// usefully convex (a > 0 with a well-conditioned normal system).
func (s *surrogate) fitDim(d int) (float64, bool) {
	n := float64(len(s.ys))
	var s1, s2, s3, s4, t0, t1, t2 float64
	for i, x := range s.xs {
		xd := x[d]
		x2 := xd * xd
		s1 += xd
		s2 += x2
		s3 += x2 * xd
		s4 += x2 * x2
		y := s.ys[i]
		t0 += y
		t1 += xd * y
		t2 += x2 * y
	}
	// Degenerate spread (every observation at the same coordinate value)
	// makes the normal system singular; skip the dimension.
	if s2-s1*s1/n < 1e-18 {
		return 0, false
	}
	// Cramer's rule on the 3×3 normal equations
	//   [s4 s3 s2][a]   [t2]
	//   [s3 s2 s1][b] = [t1]
	//   [s2 s1 n ][c]   [t0]
	det := s4*(s2*n-s1*s1) - s3*(s3*n-s1*s2) + s2*(s3*s1-s2*s2)
	scale := s4*s2*n + 1e-300
	if math.Abs(det) < 1e-12*math.Abs(scale) {
		return 0, false
	}
	a := (t2*(s2*n-s1*s1) - s3*(t1*n-s1*t0) + s2*(t1*s1-s2*t0)) / det
	b := (s4*(t1*n-s1*t0) - t2*(s3*n-s1*s2) + s2*(s3*t0-t1*s2)) / det
	if a <= 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0, false // concave or flat: no interior minimizer to propose
	}
	return -b / (2 * a), true
}
