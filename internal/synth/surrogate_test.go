package synth

import (
	"context"
	"math"
	"reflect"
	"testing"

	"pipesyn/internal/hybrid"
	"pipesyn/internal/opamp"
	"pipesyn/internal/sched"
)

// TestSurrogateFitRecoversQuadratic: the per-coordinate least-squares
// fit must recover the minimizer of an exactly quadratic history.
func TestSurrogateFitRecoversQuadratic(t *testing.T) {
	s := newSurrogate(1)
	for i := 0; i < 16; i++ {
		x := 0.1 * float64(i)
		s.xs = append(s.xs, []float64{x})
		s.ys = append(s.ys, (x-0.9)*(x-0.9)+0.25)
	}
	got, ok := s.fitDim(0)
	if !ok {
		t.Fatal("fit rejected a cleanly convex history")
	}
	if math.Abs(got-0.9) > 1e-6 {
		t.Fatalf("minimizer = %g, want 0.9", got)
	}

	// A concave history (a < 0) has no interior minimizer to propose.
	c := newSurrogate(1)
	for i := 0; i < 16; i++ {
		x := 0.1 * float64(i)
		c.xs = append(c.xs, []float64{x})
		c.ys = append(c.ys, -(x-0.9)*(x-0.9))
	}
	if _, ok := c.fitDim(0); ok {
		t.Fatal("fit proposed a minimizer for a concave history")
	}

	// Zero coordinate spread makes the normal system singular.
	z := newSurrogate(1)
	for i := 0; i < 16; i++ {
		z.xs = append(z.xs, []float64{0.5})
		z.ys = append(z.ys, float64(i))
	}
	if _, ok := z.fitDim(0); ok {
		t.Fatal("fit accepted a zero-spread history")
	}
}

// TestSurrogateObserveFilters: failed and unbounded evaluations carry no
// model information and must not enter the history; the ring must stay
// bounded at its window.
func TestSurrogateObserveFilters(t *testing.T) {
	spec, proc := lateStageSpec(t)
	seed := opamp.InitialSizing(proc, opamp.BlockSpec{
		GBW: spec.GBWMin, SR: spec.SRMin, CLoad: spec.CLoad,
		CFeed: spec.CFeed, Gain: spec.GainMin, Swing: spec.SwingMin,
	})
	s := newSurrogate(len(seed.Vector()))
	s.observe(scored{sizing: seed, cost: math.Inf(1)})
	s.observe(scored{sizing: seed, cost: 1, err: context.Canceled})
	s.observe(scored{cost: 1})
	if len(s.ys) != 0 {
		t.Fatalf("filtered observations entered the history: %d", len(s.ys))
	}
	for i := 0; i < 3*surrogateWindow; i++ {
		s.observe(scored{sizing: seed, cost: float64(i)})
	}
	if len(s.ys) != surrogateWindow {
		t.Fatalf("history grew past the window: %d", len(s.ys))
	}
	// After wrapping, the ring holds the most recent window of costs.
	want := float64(3*surrogateWindow - surrogateWindow)
	found := false
	for _, y := range s.ys {
		if y == want {
			found = true
		}
		if y < want {
			t.Fatalf("stale observation %g survived the ring wrap", y)
		}
	}
	if !found {
		t.Fatal("ring lost a recent observation")
	}
}

// TestSynthesizeSurrogateDeterministic: a surrogate-guided search is a
// pure function of its options — two identical runs must agree bit for
// bit, the model must actually fire, and the trajectory must differ
// from a surrogate-off run (the knob is part of the cache key for that
// reason).
func TestSynthesizeSurrogateDeterministic(t *testing.T) {
	spec, proc := lateStageSpec(t)
	opts := Options{
		Seed: 5, MaxEvals: 150, PatternIter: 40,
		Mode: hybrid.EquationOnly, Surrogate: true,
	}
	a, err := Synthesize(context.Background(), spec, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(context.Background(), spec, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("surrogate run is not reproducible:\n%+v\n%+v", a, b)
	}
	if a.SurrogateProposals == 0 {
		t.Fatal("surrogate never proposed over 150 evaluations")
	}
	if a.SurrogateAccepted > a.SurrogateProposals {
		t.Fatalf("accepted %d of %d proposals", a.SurrogateAccepted, a.SurrogateProposals)
	}

	base := opts
	base.Surrogate = false
	c, err := Synthesize(context.Background(), spec, proc, base)
	if err != nil {
		t.Fatal(err)
	}
	if c.SurrogateProposals != 0 || c.SurrogateAccepted != 0 {
		t.Fatalf("surrogate counters leaked into a surrogate-off run: %+v", c)
	}
	if key, baseKey := CacheKey(spec, proc, opts), CacheKey(spec, proc, base); key == baseKey {
		t.Fatal("Surrogate does not move the cache key, but it changes the trajectory")
	}
}

// TestSynthesizeSurrogateWorkerIdentity: surrogate proposals and the
// restart reduction must keep the result independent of the worker
// count.
func TestSynthesizeSurrogateWorkerIdentity(t *testing.T) {
	spec, proc := lateStageSpec(t)
	run := func(pool *sched.Pool) *Result {
		res, err := Synthesize(context.Background(), spec, proc, Options{
			Seed: 9, MaxEvals: 120, PatternIter: 30,
			Mode: hybrid.EquationOnly, Surrogate: true,
			Restarts: 3, Pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(nil)
	for _, w := range []int{2, 8} {
		if got := run(sched.NewPool(w)); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from serial:\n%+v\n%+v", w, got, serial)
		}
	}
	if serial.SurrogateProposals == 0 {
		t.Fatal("surrogate never proposed")
	}
}
