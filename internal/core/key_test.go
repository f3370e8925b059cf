package core

import (
	"context"
	"testing"

	"pipesyn/internal/hybrid"
	"pipesyn/internal/sched"
	"pipesyn/internal/synth"
)

// TestStudyKeyIgnoresExecutionKnobs pins the property the serving
// layer's crash recovery depends on: a job journaled in one process and
// re-submitted in another must land on the same content address even
// though pools, caches, worker counts, and observation hooks are all
// rebuilt from scratch. Only the study-shaping inputs may move the key.
func TestStudyKeyIgnoresExecutionKnobs(t *testing.T) {
	base := Options{Bits: 12, SampleRate: 40e6, VRef: 1.0, Synth: synth.Options{Seed: 7, MaxEvals: 50}}
	key := StudyKey(base)
	if key == "" || key != StudyKey(base) {
		t.Fatalf("StudyKey not deterministic: %q vs %q", key, StudyKey(base))
	}

	cache, err := synth.NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	exec := base
	exec.Workers = 3
	exec.Pool = sched.NewPool(2)
	exec.Progress = func(ProgressEvent) {}
	exec.Synth.Cache = cache
	exec.Synth.EvalHook = func(context.Context, int) error { return nil }
	exec.Synth.Progress = func(synth.Progress) {}
	exec.Synth.Pool = sched.NewPool(5)
	if got := StudyKey(exec); got != key {
		t.Fatalf("execution knobs changed the key: %q vs %q", got, key)
	}

	// Defaults are normalized: spelling a zero field explicitly is the
	// same study.
	spelled := base
	spelled.SampleRate = 0 // defaults to 40e6
	if got := StudyKey(spelled); got != key {
		t.Fatalf("default normalization broken: %q vs %q", got, key)
	}

	// The racing shape is dormant without Race: spelled-out defaults (or
	// any rungs/eta value) with Race off must not move the key, so two
	// requests for the same study never split on an unused knob.
	shapeOnly := base
	shapeOnly.RaceRungs = 3
	shapeOnly.RaceEta = 8
	if got := StudyKey(shapeOnly); got != key {
		t.Fatalf("RaceRungs/RaceEta changed the key without Race: %q vs %q", got, key)
	}

	// With Race on, the shape participates: defaults spelled explicitly
	// match the implicit form, and a different shape is a different study.
	raced := base
	raced.Race = true
	racedSpelled := raced
	racedSpelled.RaceRungs = 2
	racedSpelled.RaceEta = 3
	if StudyKey(raced) != StudyKey(racedSpelled) {
		t.Fatal("explicit racing defaults diverged from the implicit form")
	}
	deeper := raced
	deeper.RaceRungs = 3
	if StudyKey(deeper) == StudyKey(raced) {
		t.Fatal("RaceRungs did not move the key under Race")
	}

	// Racing ignores Retarget, so under Race it is dormant too: a
	// retarget flag must not split two identical racing studies. Without
	// Race it shapes the study and moves the key.
	racedRetarget := raced
	racedRetarget.Retarget = true
	if StudyKey(racedRetarget) != StudyKey(raced) {
		t.Fatal("Retarget changed the key under Race, which ignores it")
	}

	for name, mut := range map[string]func(*Options){
		"bits":      func(o *Options) { o.Bits = 13 },
		"rate":      func(o *Options) { o.SampleRate = 80e6 },
		"seed":      func(o *Options) { o.Synth.Seed = 8 },
		"mode":      func(o *Options) { o.Mode = 2 },
		"sha":       func(o *Options) { o.IncludeSHA = true },
		"retarget":  func(o *Options) { o.Retarget = true },
		"race":      func(o *Options) { o.Race = true },
		"surrogate": func(o *Options) { o.Synth.Surrogate = true },
	} {
		changed := base
		mut(&changed)
		if StudyKey(changed) == key {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestStudyKeyGolden pins one study's content address, so key drift is
// caught by a test rather than discovered as a silently cold cache or a
// failed journal recovery. A change that moves results without moving
// any option must bump synth.KeyVersion and update this value.
func TestStudyKeyGolden(t *testing.T) {
	opts := Options{
		Bits: 10, SampleRate: 40e6, Mode: hybrid.Hybrid,
		Synth: synth.Options{Seed: 7, MaxEvals: 16, PatternIter: 8},
	}
	const want = "2f49bd55df6622b6fa4bcce61583a4475f704a6dfc30fd352ea204bc16a0fedc"
	if got := StudyKey(opts); got != want {
		t.Fatalf("StudyKey drifted: got %s, want %s (key version %d)", got, want, synth.KeyVersion)
	}
}
