package synth

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pipesyn/internal/hybrid"
	"pipesyn/internal/sched"
	"pipesyn/internal/testutil"
)

// stallHook blocks every evaluation until the context is cancelled —
// the worst-case evaluator for cancellation latency.
func stallHook(ctx context.Context, _ int) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestSynthesizeCancelPrompt: cancelling mid-search must surface
// ctx.Err() within one evaluation granule, even when that evaluation is
// stalled, and must not leak the search goroutines.
func TestSynthesizeCancelPrompt(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	spec, proc := lateStageSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	startT := time.Now()
	res, err := Synthesize(ctx, spec, proc, Options{
		Seed: 11, MaxEvals: 1000, Mode: hybrid.EquationOnly,
		EvalHook: stallHook,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled synthesis returned a result: %+v", res)
	}
	if elapsed := time.Since(startT); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v, want within one evaluation granule", elapsed)
	}
}

// TestSynthesizeWarmKernelCancel: cancelling a hybrid-mode search, whose
// evaluations all run on one warm reuse-Newton kernel, must stop within
// one evaluation granule and leak nothing — the lane where the warm
// kernel, its carried solver state, and cancellation all meet (run
// under -race in CI).
func TestSynthesizeWarmKernelCancel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	spec, proc := lateStageSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(80 * time.Millisecond)
		cancel()
	}()
	startT := time.Now()
	res, err := Synthesize(ctx, spec, proc, Options{
		Seed: 23, MaxEvals: 100000, PatternIter: 50000,
		Mode: hybrid.Hybrid,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled synthesis returned a result: %+v", res)
	}
	if elapsed := time.Since(startT); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want within one evaluation granule", elapsed)
	}
}

// TestSynthesizeDeadlineParallelRestarts: a deadline must tear down a
// pooled multi-restart study — every worker parked in a stalled
// evaluation — promptly and without goroutine leaks.
func TestSynthesizeDeadlineParallelRestarts(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	spec, proc := lateStageSpec(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	startT := time.Now()
	_, err := Synthesize(ctx, spec, proc, Options{
		Seed: 13, MaxEvals: 1000, Mode: hybrid.EquationOnly,
		Restarts: 4, Pool: sched.NewPool(4),
		EvalHook: stallHook,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(startT); elapsed > 5*time.Second {
		t.Fatalf("deadline teardown took %v", elapsed)
	}
}

// TestSynthesizePanicIsolated: a panicking evaluator inside a pooled
// restart must come back as a typed *sched.PanicError instead of
// crashing the process, and the pool's workers must not leak.
func TestSynthesizePanicIsolated(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	spec, proc := lateStageSpec(t)
	_, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 17, MaxEvals: 50, Mode: hybrid.EquationOnly,
		Restarts: 2, Pool: sched.NewPool(2),
		EvalHook: func(context.Context, int) error {
			panic("injected evaluator fault")
		},
	})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if pe.Value != "injected evaluator fault" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error lost its stack trace")
	}
}

// TestEvalHookFaultsAreSearchOutcomes: sporadic evaluator failures are
// infeasible candidates, not engine faults — the search must route
// around them and still deliver a feasible design.
func TestEvalHookFaultsAreSearchOutcomes(t *testing.T) {
	spec, proc := lateStageSpec(t)
	faults := 0
	res, err := Synthesize(context.Background(), spec, proc, Options{
		Seed: 19, MaxEvals: 150, PatternIter: 60, Mode: hybrid.EquationOnly,
		EvalHook: func(_ context.Context, eval int) error {
			if eval%3 == 0 {
				faults++
				return fmt.Errorf("injected fault at eval %d", eval)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("sporadic evaluator faults aborted the search: %v", err)
	}
	if faults == 0 {
		t.Fatal("fault injector never fired")
	}
	if !res.Feasible {
		t.Fatalf("search failed to route around injected faults: %v", res.Report.Failures)
	}
}
