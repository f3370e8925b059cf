package synth

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sched"
	"pipesyn/internal/stagespec"
)

func lateStageSpec(t *testing.T) (stagespec.MDACSpec, *pdk.Process) {
	t.Helper()
	adc := stagespec.ADCSpec{Bits: 10, SampleRate: 40e6, VRef: 1}
	specs, err := stagespec.Translate(adc, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	return specs[1], pdk.TSMC025()
}

func TestSynthesizeFindsFeasible(t *testing.T) {
	spec, proc := lateStageSpec(t)
	res, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 1, MaxEvals: 120, PatternIter: 60, Mode: hybrid.Hybrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("no feasible sizing found: %v", res.Report.Failures)
	}
	if res.Metrics.Power <= 0 {
		t.Fatalf("power = %g", res.Metrics.Power)
	}
	if res.Evals == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestSynthesizeReducesPower(t *testing.T) {
	// The optimizer should not end up more expensive than a feasible
	// start whose cost it was told to minimize.
	spec, proc := lateStageSpec(t)
	s0 := opamp.InitialSizing(proc, opamp.BlockSpec{
		GBW: spec.GBWMin, SR: spec.SRMin, CLoad: spec.CLoad,
		CFeed: spec.CFeed, Gain: spec.GainMin, Swing: spec.SwingMin,
	})
	ev := newEvaluator(spec, proc, hybrid.Hybrid, nil, nil)
	start := ev.score(context.Background(), s0)
	res, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 3, MaxEvals: 150, PatternIter: 80, Mode: hybrid.Hybrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > start.cost*1.001 {
		t.Fatalf("optimizer worsened cost: %g → %g", start.cost, res.Cost)
	}
}

func TestWarmStartUsesFewerEvals(t *testing.T) {
	// Retargeting: synthesize a stage, then re-synthesize a neighbouring
	// spec seeded with the first result. The warm run must reach a
	// feasible point with far fewer evaluations (the paper's
	// "2–3 weeks → 1 day" effect).
	spec, proc := lateStageSpec(t)
	cold, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 5, MaxEvals: 150, PatternIter: 60, Mode: hybrid.Hybrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Feasible {
		t.Skip("cold run infeasible; retarget comparison not meaningful")
	}
	// Neighbouring spec: the same stage retargeted to 20% more bandwidth.
	spec2 := spec
	spec2.GBWMin *= 1.2
	warm, err := Synthesize(context.Background(), spec2, proc, Options{
		Seed: 6, MaxEvals: 150, PatternIter: 60, Mode: hybrid.Hybrid,
		WarmStart: &cold.Sizing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Feasible {
		t.Fatalf("warm retarget infeasible: %v", warm.Report.Failures)
	}
	if warm.Evals >= cold.Evals {
		t.Fatalf("warm start spent %d evals, cold %d — retargeting saved nothing",
			warm.Evals, cold.Evals)
	}
}

// TestParallelRestartsMatchSerial: the restart fan-out reduces in
// restart order with per-restart seeds, so the worker count cannot
// change the outcome.
func TestParallelRestartsMatchSerial(t *testing.T) {
	spec, proc := lateStageSpec(t)
	base := Options{
		Seed: 17, MaxEvals: 500, PatternIter: 100,
		Mode: hybrid.EquationOnly, Restarts: 4,
	}
	serial, err := Synthesize(context.Background(), spec, proc, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opts := base
		opts.Pool = sched.NewPool(workers)
		par, err := Synthesize(context.Background(), spec, proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d diverged: serial cost %.12g evals %d, parallel cost %.12g evals %d",
				workers, serial.Cost, serial.Evals, par.Cost, par.Evals)
		}
	}
}

// TestFailedRestartEvalsCounted: a restart that errors after burning
// evaluator calls must still contribute to Evals, and EvalsToFeasible of
// later restarts must be offset by that spent budget.
func TestFailedRestartEvalsCounted(t *testing.T) {
	orig := runRestart
	defer func() { runRestart = orig }()

	const failedEvals = 37
	var calls int
	runRestart = func(ctx context.Context, spec stagespec.MDACSpec, proc *pdk.Process, opts Options) (*Result, int, error) {
		calls++
		if calls == 1 {
			// First restart: dies mid-search with partial work spent.
			return nil, failedEvals, errors.New("injected restart failure")
		}
		return orig(ctx, spec, proc, opts)
	}

	spec, proc := lateStageSpec(t)
	res, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 23, MaxEvals: 300, PatternIter: 60,
		Mode: hybrid.EquationOnly, Restarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("runRestart called %d times, want 2", calls)
	}

	// Reference: the surviving restart alone (restart index 1 has seed
	// base + 9973, reproduced here by shifting the base seed).
	alone, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 23 + 9973, MaxEvals: 300, PatternIter: 60,
		Mode: hybrid.EquationOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != alone.Evals+failedEvals {
		t.Fatalf("Evals = %d, want %d survivor evals + %d failed evals",
			res.Evals, alone.Evals, failedEvals)
	}
	if alone.EvalsToFeasible >= 0 && res.EvalsToFeasible != alone.EvalsToFeasible+failedEvals {
		t.Fatalf("EvalsToFeasible = %d, want %d offset by the %d failed evals",
			res.EvalsToFeasible, alone.EvalsToFeasible, failedEvals)
	}
}

// TestAllRestartsFailedSurfacesFirstError: when nothing survives, the
// first restart's error comes back regardless of scheduling.
func TestAllRestartsFailedSurfacesFirstError(t *testing.T) {
	orig := runRestart
	defer func() { runRestart = orig }()
	errFirst := errors.New("first failure")
	var calls int
	runRestart = func(context.Context, stagespec.MDACSpec, *pdk.Process, Options) (*Result, int, error) {
		calls++
		if calls == 1 {
			return nil, 5, errFirst
		}
		return nil, 5, errors.New("later failure")
	}
	spec, proc := lateStageSpec(t)
	_, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 29, MaxEvals: 50, Mode: hybrid.EquationOnly, Restarts: 3,
	})
	if !errors.Is(err, errFirst) {
		t.Fatalf("err = %v, want the first restart's error", err)
	}
}

func TestPerturbStaysInBounds(t *testing.T) {
	proc := pdk.TSMC025()
	rng := rand.New(rand.NewSource(9))
	s := opamp.Amp{
		W1: 1e-6, L1: 0.5e-6, W3: 1e-6, L3: 0.5e-6, W5: 5e-6, L5: 0.35e-6,
		KTail: 4, K2: 8, IRef: 20e-6, CC: 0.3e-12, RZ: 500,
	}
	for i := 0; i < 500; i++ {
		s = perturb(rng, s, 1.0, proc)
		if s.W1 < proc.WMin || s.W1 > proc.WMax || s.L1 < proc.LMin || s.L1 > proc.LMax {
			t.Fatalf("geometry escaped bounds: %+v", s)
		}
		if s.IRef <= 0 || s.CC <= 0 || s.RZ <= 0 {
			t.Fatalf("non-positive electricals: %+v", s)
		}
	}
}

func TestEquationModeSynthesisIsCheap(t *testing.T) {
	// Equation-only synthesis must run a large budget quickly and still
	// produce a sane sizing (this is the speed end of the paper's
	// trade-off).
	spec, proc := lateStageSpec(t)
	res, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 11, MaxEvals: 2000, PatternIter: 400, Mode: hybrid.EquationOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Power <= 0 || res.Metrics.Power > 50e-3 {
		t.Fatalf("equation-mode power = %g", res.Metrics.Power)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.defaults()
	if o.MaxEvals != 400 || o.PatternIter != 120 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	warm := Options{WarmStart: &opamp.Amp{}}
	warm.defaults()
	if warm.MaxEvals >= 400 {
		t.Fatalf("warm-start defaults must shrink the schedule: %+v", warm)
	}
}

// TestWarmStartTinyBudgetClamped: the warm-start schedule shrink used to
// integer-divide MaxEvals to zero for any retarget budget under 8, so
// exactly the cheap low-fidelity runs the racing rungs issue lost their
// entire annealing allowance without a word. The shrink must clamp to at
// least one evaluation, and the full pipeline must survive a MaxEvals=4
// warm-started run.
func TestWarmStartTinyBudgetClamped(t *testing.T) {
	o := Options{MaxEvals: 4, WarmStart: &opamp.Amp{}}
	o.defaults()
	if o.MaxEvals < 1 {
		t.Fatalf("warm-start shrink zeroed the annealing budget: MaxEvals = %d", o.MaxEvals)
	}

	spec, proc := lateStageSpec(t)
	cold, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 5, MaxEvals: 120, PatternIter: 60, Mode: hybrid.EquationOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 6, MaxEvals: 4, PatternIter: 8, Mode: hybrid.EquationOnly,
		WarmStart: &cold.Sizing,
	})
	if err != nil {
		t.Fatalf("MaxEvals=4 warm-started run failed: %v", err)
	}
	if warm.Evals == 0 {
		t.Fatal("tiny warm-started run recorded no evaluations")
	}
}

// TestSynthesizeWarmKernelDeterministic: every hybrid evaluation of a
// restart runs on one warm kernel rebound per candidate, with the
// tolerance-contracted reuse Newton; a fixed seed must still reproduce
// the result exactly.
func TestSynthesizeWarmKernelDeterministic(t *testing.T) {
	spec, proc := lateStageSpec(t)
	opts := Options{
		Seed: 11, MaxEvals: 80, PatternIter: 40,
		Mode: hybrid.Hybrid,
	}
	first, err := Synthesize(context.Background(), spec, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Synthesize(context.Background(), spec, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock fields are the only sanctioned nondeterminism.
	first.Metrics.DCTime, first.Metrics.TFTime, first.Metrics.TranTime = 0, 0, 0
	second.Metrics.DCTime, second.Metrics.TFTime, second.Metrics.TranTime = 0, 0, 0
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm-kernel synthesis not deterministic:\n%+v\nvs\n%+v", first, second)
	}
	if first.Evals == 0 {
		t.Fatal("no evaluations recorded")
	}
}
