// Package synth is the cell-level sizing engine standing in for the
// commercial tool (Cadence NeoCircuit) the paper used: a simulated-
// annealing global search with a coordinate pattern-search refinement,
// driving the hybrid evaluator on every candidate. Design variables are
// explored in log space (widths, currents and capacitors span decades),
// constraints enter through a penalty term, and the objective is static
// power.
//
// Retargeting — the paper's headline productivity claim (first synthesis
// 2–3 weeks, subsequent blocks 1 day) — is supported by warm starts: a
// previously synthesized sizing seeds the search for a neighbouring spec,
// and the annealing schedule shortens accordingly.
package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pipesyn/internal/hybrid"
	"pipesyn/internal/mdac"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sched"
	"pipesyn/internal/stagespec"
)

// The annealing schedule and the constraint penalty. CacheKey and
// core.StudyKey hash all three, so changing one moves every content
// address.
const (
	InitTemp = 2.0  // initial annealing temperature (a tenth when warm-started)
	CoolRate = 0.98 // geometric cooling per move
	PenaltyW = 10.0 // constraint penalty weight
)

// Options tunes the optimizer.
type Options struct {
	Seed        int64
	MaxEvals    int // annealing evaluation budget (default 400)
	Mode        hybrid.Mode
	WarmStart   *opamp.Amp // retargeting seed; nil = equation start
	PatternIter int        // pattern-search polish evaluations (default 120)
	// Surrogate interleaves deterministic quadratic-model proposals with
	// the annealer's random moves: a per-coordinate quadratic fit over
	// the log-space sizings already evaluated proposes its trust-clamped
	// minimizer every few moves in place of a random perturbation (see
	// surrogate.go). The model is fit with exact least squares over an
	// order-pinned history — no extra randomness — so the trajectory is
	// still deterministic, just different from the default, which is why
	// the knob is part of the cache key.
	Surrogate bool
	// Restarts repeats the anneal+polish pipeline from fresh random seeds
	// and keeps the best outcome; use >1 when the power comparison must
	// be low-variance (the figure-reproduction sweeps do).
	Restarts int

	// Pool, when set, fans the restarts out over a shared worker budget
	// — the study scheduler passes its own pool down so a whole sweep
	// respects one machine-wide bound; nil runs them serially. Each
	// restart owns a deterministic RNG (Seed + r·9973) and the outcomes
	// reduce in restart order, so the result is identical for any pool.
	// Never part of the cache key.
	Pool *sched.Pool
	// Cache, when set, short-circuits Synthesize with a previous result
	// for the same content address (see CacheKey) and records new
	// results for later runs. Never part of the cache key.
	Cache *Cache
	// EvalHook, when set, runs before every evaluator call with the
	// 1-based evaluation ordinal. It is the fault-injection seam for the
	// robustness tests: return an error to fail the candidate, panic to
	// exercise the scheduler's fault boundary, or block on ctx.Done() to
	// simulate a stalled evaluation. A non-nil return marks the
	// candidate infeasible exactly like an evaluator error. Never part
	// of the cache key.
	EvalHook func(ctx context.Context, eval int) error
	// Progress, when set, runs after every completed evaluation — the
	// observation seam the serving layer streams per-stage progress
	// from. Unlike EvalHook it cannot influence the search: it sees the
	// per-restart evaluation ordinal and the wall-clock cost of the
	// evaluation it just watched. Restarts may run in parallel, so the
	// callback must be safe for concurrent use and must not block (it
	// runs on the evaluator's hot path). Never part of the cache key.
	Progress func(p Progress)
}

// Progress is one evaluation-granule observation delivered to
// Options.Progress: Eval is the 1-based ordinal within one restart's
// evaluator, Elapsed the wall-clock cost of that evaluation (including a
// hook-rejected candidate's bookkeeping, which is ~0).
type Progress struct {
	Eval    int
	Elapsed time.Duration
}

func (o *Options) defaults() {
	if o.MaxEvals == 0 {
		o.MaxEvals = 400
	}
	if o.PatternIter == 0 {
		o.PatternIter = 120
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	if o.WarmStart != nil {
		// Retargeting: the seed is near-feasible, so spend a fraction of
		// the budget on local refinement instead of global exploration.
		// Clamp to one evaluation so a small caller budget (racing rungs
		// run with MaxEvals as low as 2–8) never silently zeroes the
		// annealing loop and skips global search entirely.
		o.MaxEvals /= 8
		if o.MaxEvals < 1 {
			o.MaxEvals = 1
		}
	}
}

// Result is a completed synthesis run.
type Result struct {
	Sizing   opamp.Amp
	Metrics  hybrid.Metrics
	Report   hybrid.SpecReport
	Feasible bool
	Evals    int     // evaluator calls spent (0 when served from the cache)
	Cost     float64 // final scalar cost
	// EvalsToFeasible is the evaluation count at which the first feasible
	// candidate appeared (0 when the start point was already feasible,
	// -1 when none was found) — the mechanized analogue of the paper's
	// setup-time comparison.
	EvalsToFeasible int
	// CacheHit marks a result replayed from Options.Cache instead of a
	// fresh search; Evals is 0 on such results.
	CacheHit bool
	// SurrogateProposals / SurrogateAccepted count the quadratic-model
	// sizing proposals issued to the evaluator and the subset the
	// annealer accepted as incumbent (0 unless Options.Surrogate; summed
	// across successful restarts).
	SurrogateProposals int
	SurrogateAccepted  int
}

// runRestart is the single-restart pipeline behind Synthesize; a
// package variable so tests can inject restart failures and verify the
// evaluation accounting.
var runRestart = synthesizeOnce

// Synthesize sizes the MDAC amplifier for the given stage spec at minimum
// power subject to the block constraints. With Restarts > 1 the whole
// pipeline repeats from fresh seeds — in parallel when a Pool is set —
// and the best outcome wins. The reduction over restarts happens
// in restart order, so the result does not depend on the worker count.
//
// Cancelling ctx aborts the search within one evaluation granule and
// returns ctx.Err(); nothing is cached for a cancelled request, so a
// later retry re-runs the full search.
func Synthesize(ctx context.Context, spec stagespec.MDACSpec, proc *pdk.Process, opts Options) (*Result, error) {
	var cacheKey string
	if opts.Cache != nil {
		cacheKey = CacheKey(spec, proc, opts)
		if res, ok := opts.Cache.Get(cacheKey); ok {
			res.CacheHit = true
			res.Evals = 0 // no evaluator calls were spent this run
			// EvalsToFeasible is preserved as stored: it records what the
			// original search cost, and 0 already means "the start point was
			// feasible" — CacheHit is the signal that this replay was free.
			return res, nil
		}
	}
	opts.defaults()

	type restartOut struct {
		res   *Result
		evals int
		err   error
	}
	outs := make([]restartOut, opts.Restarts)
	oneRestart := func(r int) {
		runOpts := opts
		runOpts.Restarts = 1
		runOpts.Seed = opts.Seed + int64(r)*9973
		res, evals, err := runRestart(ctx, spec, proc, runOpts)
		outs[r] = restartOut{res: res, evals: evals, err: err}
	}
	if opts.Restarts > 1 && opts.Pool != nil {
		if err := opts.Pool.ForEach(ctx, opts.Restarts, oneRestart); err != nil {
			// Cancellation or an isolated worker panic: the per-restart
			// outputs are partial, so surface the fault instead of
			// reducing over them.
			return nil, err
		}
	} else {
		for r := 0; r < opts.Restarts; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			oneRestart(r)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var best *Result
	var firstErr error
	totalEvals := 0
	firstFeasibleAt := -1
	surProps, surAcc := 0, 0
	for _, out := range outs {
		// Failed restarts still spent evaluator calls; count them so
		// Evals reflects the true search cost and EvalsToFeasible offsets
		// don't drift when an earlier restart errored out.
		totalEvals += out.evals
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		surProps += out.res.SurrogateProposals
		surAcc += out.res.SurrogateAccepted
		if out.res.EvalsToFeasible >= 0 && firstFeasibleAt < 0 {
			firstFeasibleAt = totalEvals - out.evals + out.res.EvalsToFeasible
		}
		if best == nil || betterResult(out.res, best) {
			best = out.res
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("synth: all restarts failed for stage %d (%d-bit)", spec.Stage, spec.Bits)
	}
	best.Evals = totalEvals
	best.EvalsToFeasible = firstFeasibleAt
	best.SurrogateProposals = surProps
	best.SurrogateAccepted = surAcc
	if opts.Cache != nil {
		opts.Cache.Put(cacheKey, best)
	}
	return best, nil
}

// betterResult prefers feasibility first, then lower cost.
func betterResult(a, b *Result) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	return a.Cost < b.Cost
}

// synthesizeOnce runs one anneal+polish pipeline. It reports the
// evaluator calls spent alongside the result so callers can account for
// the search cost of failed restarts too.
func synthesizeOnce(ctx context.Context, spec stagespec.MDACSpec, proc *pdk.Process, opts Options) (*Result, int, error) {
	rng := rand.New(rand.NewSource(opts.Seed))

	eqSeed := opamp.InitialSizing(proc, opamp.BlockSpec{
		GBW: spec.GBWMin, SR: spec.SRMin, CLoad: spec.CLoad,
		CFeed: spec.CFeed, Gain: spec.GainMin, Swing: spec.SwingMin,
	})
	ev := newEvaluator(spec, proc, opts.Mode, opts.EvalHook, opts.Progress)
	best := ev.score(ctx, eqSeed)
	if opts.WarmStart != nil {
		// Retargeting: start from the better of the two seeds. A warm
		// start carried over from a *tighter* spec is over-designed for a
		// relaxed one, and the short retarget schedule would never shed
		// the excess power; the equation seed covers that case.
		warm := ev.score(ctx, *opts.WarmStart)
		if warm.err == nil && (best.err != nil || warm.cost < best.cost) {
			best = warm
		}
	}
	if best.err != nil {
		// The start point may simply fail to bias; treat as very costly
		// and let annealing walk away from it. Typed sim.ConvergenceError
		// values land here too: an unsolvable candidate is a search
		// outcome, not an engine fault, so the annealer skips it.
		best.cost = math.Inf(1)
	}
	cur := best
	firstFeasible := -1
	if best.feasible() {
		firstFeasible = 0
	}
	var sur *surrogate
	if opts.Surrogate {
		sur = newSurrogate(len(eqSeed.Vector()))
		sur.observe(best)
	}

	// Simulated annealing over log-space perturbations. The context is
	// the abort signal: it is checked once per move, so a cancelled study
	// stops after the candidate in flight. A warm start is near-feasible,
	// so it anneals from a tenth of the cold temperature.
	temp := InitTemp
	if opts.WarmStart != nil {
		temp /= 10
	}
	fold := func(sc scored) bool {
		accepted := false
		if sc.err == nil {
			if firstFeasible < 0 && sc.feasible() {
				firstFeasible = ev.evals
			}
			accepted = sc.cost < cur.cost
			if !accepted && temp > 0 {
				accepted = rng.Float64() < math.Exp((cur.cost-sc.cost)/math.Max(temp*math.Abs(cur.cost)+1e-12, 1e-12))
			}
			if accepted {
				cur = sc
				if sc.cost < best.cost {
					best = sc
				}
			}
		}
		temp *= CoolRate
		return accepted
	}
	moves := 0
	for ev.evals < opts.MaxEvals {
		if err := ctx.Err(); err != nil {
			return nil, ev.evals, err
		}
		moves++
		// Every surrogatePeriod-th move the quadratic model, when it has
		// something to say, takes the slot a random perturbation would
		// have used. Skipping the perturb shifts the RNG stream relative
		// to a surrogate-off run, which is fine: Surrogate is part of the
		// cache key.
		if sur != nil && moves%surrogatePeriod == 0 {
			if cand, ok := sur.propose(cur.sizing, proc); ok {
				sur.proposals++
				sc := ev.score(ctx, cand)
				sur.observe(sc)
				if fold(sc) {
					sur.accepted++
				}
				continue
			}
		}
		sc := ev.score(ctx, perturb(rng, cur.sizing, temp, proc))
		sur.observe(sc)
		fold(sc)
	}

	// Coordinate pattern search around the best point.
	best = patternSearch(ctx, ev, best, opts.PatternIter, proc, &firstFeasible)
	if err := ctx.Err(); err != nil {
		return nil, ev.evals, err
	}

	if math.IsInf(best.cost, 1) {
		return nil, ev.evals, fmt.Errorf("synth: no candidate evaluated successfully for stage %d (%d-bit)",
			spec.Stage, spec.Bits)
	}
	out := &Result{
		Sizing:          best.sizing,
		Metrics:         best.metrics,
		Report:          best.report,
		Feasible:        best.feasible(),
		Evals:           ev.evals,
		Cost:            best.cost,
		EvalsToFeasible: firstFeasible,
	}
	if sur != nil {
		out.SurrogateProposals = sur.proposals
		out.SurrogateAccepted = sur.accepted
	}
	return out, ev.evals, nil
}

// scored couples a sizing with its evaluation.
type scored struct {
	sizing  opamp.Amp
	metrics hybrid.Metrics
	report  hybrid.SpecReport
	cost    float64
	err     error
}

func (s scored) feasible() bool { return s.err == nil && s.report.Violations == 0 }

type evaluator struct {
	spec     stagespec.MDACSpec
	proc     *pdk.Process
	se       *hybrid.StageEvaluator
	evals    int
	hook     func(ctx context.Context, eval int) error
	progress func(p Progress)
}

func newEvaluator(spec stagespec.MDACSpec, proc *pdk.Process, mode hybrid.Mode, hook func(context.Context, int) error, progress func(Progress)) *evaluator {
	return &evaluator{
		spec: spec, proc: proc,
		se:       hybrid.NewStageEvaluator(spec, proc, mode),
		hook:     hook,
		progress: progress,
	}
}

// score runs the configured evaluation mode and folds constraint
// violations into a scalar cost: normalized power plus weighted penalty.
func (ev *evaluator) score(ctx context.Context, s opamp.Amp) scored {
	ev.evals++
	ord := ev.evals
	if ev.progress != nil {
		start := time.Now()
		defer func() { ev.progress(Progress{Eval: ord, Elapsed: time.Since(start)}) }()
	}
	if ev.hook != nil {
		if err := ev.hook(ctx, ord); err != nil {
			return scored{sizing: s, err: err, cost: math.Inf(1)}
		}
	}
	m, err := ev.se.Evaluate(ctx, s)
	out := scored{sizing: s, metrics: m, err: err}
	if err != nil {
		out.cost = math.Inf(1)
		return out
	}
	st := mdac.Stage{Spec: ev.spec, Sizing: s, Process: ev.proc}
	out.report = hybrid.Check(hybrid.SpecsFor(st), m)
	// Normalize power against a spec-scale reference so the penalty
	// weight is meaningful across stages.
	pRef := ev.proc.VDD * 1e-3 // 1 mA scale
	out.cost = m.Power/pRef + PenaltyW*out.report.Violations
	return out
}

// perturb moves a random subset of variables in log space, with step size
// proportional to temperature.
func perturb(rng *rand.Rand, s opamp.Amp, temp float64, proc *pdk.Process) opamp.Amp {
	v := s.Vector()
	scale := 0.05 + 0.4*math.Min(temp, 1)
	n := 1 + rng.Intn(3)
	for k := 0; k < n; k++ {
		i := rng.Intn(len(v))
		factor := math.Exp(rng.NormFloat64() * scale)
		v[i] *= factor
	}
	out, err := opamp.FromVector(v)
	if err != nil {
		return s
	}
	return out.Clamp(proc)
}

// patternSearch polishes with coordinate moves of shrinking step. A
// cancelled context stops the polish; the caller re-checks ctx and
// discards the partial result.
func patternSearch(ctx context.Context, ev *evaluator, best scored, budget int, proc *pdk.Process, firstFeasible *int) scored {
	step := 0.25
	dims := len(best.sizing.Vector())
	for spent := 0; spent < budget && step > 0.01; {
		improved := false
		for i := 0; i < dims && spent < budget; i++ {
			for _, dir := range []float64{1 + step, 1 / (1 + step)} {
				if ctx.Err() != nil {
					return best
				}
				v := best.sizing.Vector()
				v[i] *= dir
				cand, err := opamp.FromVector(v)
				if err != nil {
					continue
				}
				sc := ev.score(ctx, cand.Clamp(proc))
				spent++
				if sc.err == nil {
					if *firstFeasible < 0 && sc.feasible() {
						*firstFeasible = ev.evals
					}
					if sc.cost < best.cost {
						best = sc
						improved = true
						break
					}
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return best
}
