package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/la"
	"pipesyn/internal/mdac"
	"pipesyn/internal/opamp"
	"pipesyn/internal/service"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/synth"
)

// replayReps is how many times the replay evaluates each design point.
const replayReps = 3

// replayOut holds the evaluator- and simulator-level timings of one
// replayed study.
type replayOut struct {
	evals                  int
	dc, tf, tran, wall     time.Duration // summed over evals
	allocs, bytes          uint64
	ops, trans, newtonIter int
	opTime, tranTime       time.Duration
}

type replayPoint struct {
	spec   stagespec.MDACSpec
	sizing opamp.Amp
}

// replayStudy passes each design point of a served hybrid study, with
// its synthesized sizing, through the public evaluator, then runs its
// hold circuit through sim.OP and sim.Tran directly. The sizings come
// from the daemon's synthesis cache, so rebuilding the study costs no
// search.
func replayStudy(ctx context.Context, req service.StudyRequest, cache *synth.Cache) (replayOut, error) {
	var out replayOut
	opts, err := req.Options()
	if err != nil {
		return out, err
	}
	opts.Synth.Cache = cache
	opts.Workers = 1
	study, err := core.Optimize(ctx, opts)
	if err != nil {
		return out, fmt.Errorf("replay: rebuild study: %w", err)
	}
	full := opts.WithDefaults()
	adc := stagespec.ADCSpec{Bits: full.Bits, SampleRate: full.SampleRate, VRef: full.VRef, Process: full.Process}
	cands, err := enum.Candidates(full.Bits, full.Constraints)
	if err != nil {
		return out, err
	}
	specs := map[core.DesignPoint]stagespec.MDACSpec{}
	for _, cfg := range cands {
		sps, err := stagespec.Translate(adc, cfg)
		if err != nil {
			return out, err
		}
		for _, sp := range sps {
			specs[core.DesignPoint{Stage: sp.Stage, Bits: sp.Bits, PriorBits: sp.PriorBits}] = sp
		}
	}

	// One untimed evaluation per point compiles its loop transfer
	// function, as the first evaluation of a synthesis does.
	var points []replayPoint
	var evs []*hybrid.StageEvaluator
	for _, m := range study.MDACs {
		p := replayPoint{spec: specs[m.Key], sizing: m.Result.Sizing}
		se := hybrid.NewStageEvaluator(p.spec, full.Process, hybrid.Hybrid)
		if _, err := se.Evaluate(ctx, p.sizing); err != nil {
			continue // a point whose best sizing does not converge has no legs to time
		}
		points = append(points, p)
		evs = append(evs, se)
	}
	if len(points) == 0 {
		return out, fmt.Errorf("replay: no design point evaluates")
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for rep := 0; rep < replayReps; rep++ {
		for i, p := range points {
			t := time.Now()
			m, err := evs[i].Evaluate(ctx, p.sizing)
			out.wall += time.Since(t)
			if err != nil {
				return out, fmt.Errorf("replay: evaluate stage %d: %w", p.spec.Stage, err)
			}
			out.evals++
			out.dc += m.DCTime
			out.tf += m.TFTime
			out.tran += m.TranTime
		}
	}
	runtime.ReadMemStats(&m1)
	out.allocs = m1.Mallocs - m0.Mallocs
	out.bytes = m1.TotalAlloc - m0.TotalAlloc

	for rep := 0; rep < replayReps; rep++ {
		for _, p := range points {
			if err := out.simPoint(p, full); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// simPoint solves one point's hold circuit with the same analyses the
// evaluator's DC and transient legs run.
func (out *replayOut) simPoint(p replayPoint, full core.Options) error {
	st := mdac.Stage{Spec: p.spec, Sizing: p.sizing, Process: full.Process}
	hold, err := st.HoldCircuit()
	if err != nil {
		return err
	}
	t := time.Now()
	op, err := sim.OP(hold, sim.DCOpts{})
	out.opTime += time.Since(t)
	if err != nil {
		return fmt.Errorf("replay: sim.OP stage %d: %w", p.spec.Stage, err)
	}
	out.ops++
	out.newtonIter += op.Iterations
	window := p.spec.TSlew + p.spec.TSettle
	t = time.Now()
	_, err = sim.Tran(hold, sim.TranOpts{TStop: mdac.StepDelay + 1.5*window, TStep: window / 400})
	out.tranTime += time.Since(t)
	if err != nil {
		return fmt.Errorf("replay: sim.Tran stage %d: %w", p.spec.Stage, err)
	}
	out.trans++
	return nil
}

// coldEvals runs the requests without racing, uncached, and returns the
// evaluator calls they spend: the base racing's savings are measured
// against.
func coldEvals(ctx context.Context, reqs []service.StudyRequest) (int, error) {
	total := 0
	for _, req := range reqs {
		req.Race = false
		opts, err := req.Options()
		if err != nil {
			return 0, err
		}
		st, err := core.Optimize(ctx, opts)
		if err != nil {
			return 0, err
		}
		total += st.TotalEvals
	}
	return total, nil
}

// mnaSystem builds a fixed 20-unknown system shaped like the simulator's
// MNA matrices: an 18-node conductance ladder with leaks to ground,
// transconductance couplings that break symmetry, and two voltage-source
// branch rows with zero diagonals.
func mnaSystem() (*la.Matrix, []float64) {
	const nodes, n = 18, 20
	a := la.NewMatrix(n, n)
	b := make([]float64, n)
	cond := func(p, q int, g float64) {
		a.Add(p, p, g)
		a.Add(q, q, g)
		a.Add(p, q, -g)
		a.Add(q, p, -g)
	}
	for i := 0; i+1 < nodes; i++ {
		cond(i, i+1, 1e-3*float64(1+i%3))
	}
	for i := 0; i < nodes; i++ {
		a.Add(i, i, 1e-6)
		if i%3 == 0 {
			a.Add(i, i, 1e-4)
		}
	}
	for _, i := range []int{2, 5, 8, 11, 14} {
		a.Add(i+2, i, 2e-3) // gm·v(i) into node i+2
		a.Add(i+3, i+1, -5e-4)
	}
	for k, node := range []int{0, 9} {
		br := nodes + k
		a.Add(node, br, 1)
		a.Add(br, node, 1)
		b[br] = 1.2 + 0.6*float64(k)
	}
	b[4], b[13] = 1e-4, -2e-4
	return a, b
}

// laFactorSolveNS times one numeric factorization plus solve of the
// fixed MNA system through the public sparse API with a static-ordered
// analysis, as the median over five batches.
func laFactorSolveNS() (float64, error) {
	a, b := mnaSystem()
	sym, err := la.AnalyzeOrdered(la.PatternOf(a))
	if err != nil {
		return 0, fmt.Errorf("la: ordered analysis: %w", err)
	}
	lu := la.NewSparseLU(sym)
	x := make([]float64, len(b))
	const batches, per = 5, 4000
	ns := make([]float64, batches)
	for i := range ns {
		t := time.Now()
		for j := 0; j < per; j++ {
			if err := lu.NumericFactor(a); err != nil {
				return 0, fmt.Errorf("la: factor: %w", err)
			}
			lu.SolveInto(x, b)
		}
		ns[i] = float64(time.Since(t).Nanoseconds()) / per
	}
	ax := a.MulVec(x)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
			return 0, fmt.Errorf("la: residual %g in row %d", ax[i]-b[i], i)
		}
	}
	return median(ns), nil
}
