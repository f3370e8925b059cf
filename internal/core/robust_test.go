package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pipesyn/internal/enum"
	"pipesyn/internal/sched"
	"pipesyn/internal/synth"
	"pipesyn/internal/testutil"
)

// TestOptimizeNoCandidatesError: contradictory constraints enumerate
// nothing. Optimize used to index Candidates[0] regardless and panic on
// an empty enumeration; it must return a descriptive error instead
// (from the enumerator when it detects the dead end itself, or from
// core's own guard).
func TestOptimizeNoCandidatesError(t *testing.T) {
	opts := eqOpts(13)
	opts.Constraints = enum.Constraints{MinStageBits: 4, MaxStageBits: 3}
	_, err := Optimize(context.Background(), opts)
	if err == nil {
		t.Fatal("Optimize accepted constraints that admit no candidates")
	}
	if !strings.Contains(err.Error(), "no feasible configuration") &&
		!strings.Contains(err.Error(), "no pipeline candidates") {
		t.Fatalf("err = %v, want a no-candidates diagnosis", err)
	}
}

// TestOptimizeCancelPrompt: cancelling a study mid-flight must abort
// within one evaluation granule, return ctx.Err(), and leave no
// scheduler goroutines behind.
func TestOptimizeCancelPrompt(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	opts := eqOpts(13)
	opts.Workers = 4
	opts.Synth.EvalHook = func(ctx context.Context, _ int) error {
		<-ctx.Done()
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	startT := time.Now()
	st, err := Optimize(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st != nil {
		t.Fatal("cancelled study returned a partial Study")
	}
	if elapsed := time.Since(startT); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestOptimizePanicNamesDesignPoint: a worker panic during synthesis
// must surface as a *sched.PanicError whose label identifies the design
// point, not crash the study — on a racing rung as on the uniform flow.
func TestOptimizePanicNamesDesignPoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, raced := range []bool{false, true} {
		opts := eqOpts(13)
		opts.Race = raced
		opts.Workers = 2
		opts.Synth.EvalHook = func(context.Context, int) error {
			panic("injected study fault")
		}
		_, err := Optimize(context.Background(), opts)
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("race=%v: err = %v, want *sched.PanicError", raced, err)
		}
		if !strings.Contains(pe.Label, "design point stage") {
			t.Fatalf("race=%v: panic label %q does not name the design point", raced, pe.Label)
		}
		if pe.Value != "injected study fault" {
			t.Fatalf("race=%v: panic value = %v", raced, pe.Value)
		}
	}
}

// TestSweepDeadline: a deadline on a multi-resolution sweep must tear
// down every study under the shared pool and report it.
func TestSweepDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	base := eqOpts(0)
	base.Workers = 4
	base.Synth.EvalHook = func(ctx context.Context, _ int) error {
		<-ctx.Done()
		return ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	startT := time.Now()
	_, err := Sweep(ctx, []int{10, 11, 12}, base)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(startT); elapsed > 5*time.Second {
		t.Fatalf("deadline teardown took %v", elapsed)
	}
}

// TestOptimizeCancelCachesNothing: a cancelled study must not publish
// half-baked results into a shared synthesis cache — a later run with
// the same cache must do real work and succeed.
func TestOptimizeCancelCachesNothing(t *testing.T) {
	cache, err := synth.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := eqOpts(10)
	opts.Synth.Cache = cache
	opts.Synth.EvalHook = func(ctx context.Context, _ int) error {
		<-ctx.Done()
		return ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := Optimize(ctx, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("cancelled study published %d cache entries", cache.Len())
	}
	// The same cache serves a clean re-run.
	opts.Synth.EvalHook = nil
	st, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatalf("re-run hit %d poisoned cache entries", st.CacheHits)
	}
	if !st.Best.AllFeasible {
		t.Fatal("re-run after cancellation failed to find a feasible study")
	}
}
