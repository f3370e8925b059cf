package synth

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pipesyn/internal/hybrid"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sched"
)

func TestCacheKeyStability(t *testing.T) {
	spec, proc := lateStageSpec(t)
	opts := Options{Seed: 7, MaxEvals: 100, PatternIter: 50, Mode: hybrid.Hybrid}
	key := CacheKey(spec, proc, opts)
	if key == "" || len(key) != 64 {
		t.Fatalf("key = %q", key)
	}
	if CacheKey(spec, proc, opts) != key {
		t.Fatal("key not deterministic")
	}

	// Execution knobs and the warm-start seed must not move the key.
	same := opts
	same.Pool = sched.NewPool(8)
	same.Cache, _ = NewCache(1, "")
	same.WarmStart = &opamp.Amp{W1: 1e-6}
	if CacheKey(spec, proc, same) != key {
		t.Fatal("Pool/Cache/WarmStart leaked into the key")
	}
	// Zero options normalize to their defaults, so explicit defaults
	// share the address with implied ones.
	implied := Options{Seed: 7, MaxEvals: 100, Mode: hybrid.Hybrid}
	explicit := implied
	explicit.PatternIter = 120 // the documented default
	if CacheKey(spec, proc, implied) != CacheKey(spec, proc, explicit) {
		t.Fatal("default normalization failed")
	}
	// Everything that shapes the result must move the key.
	for name, mutate := range map[string]func(*Options){
		"seed":      func(o *Options) { o.Seed++ },
		"budget":    func(o *Options) { o.MaxEvals++ },
		"mode":      func(o *Options) { o.Mode = hybrid.EquationOnly },
		"restarts":  func(o *Options) { o.Restarts = 3 },
		"surrogate": func(o *Options) { o.Surrogate = true },
	} {
		m := opts
		mutate(&m)
		if CacheKey(spec, proc, m) == key {
			t.Fatalf("%s change did not change the key", name)
		}
	}
	spec2 := spec
	spec2.GBWMin *= 1.01
	if CacheKey(spec2, proc, opts) == key {
		t.Fatal("spec change did not change the key")
	}
	if CacheKey(spec, pdk.TSMC025(), opts) != key {
		t.Fatal("same-named process must share the key")
	}
}

// TestCacheKeyGolden pins one synthesis request's content address, so
// key drift is caught by a test rather than discovered as a cold disk
// or peer cache. A change that moves results without moving any option
// must bump KeyVersion and update this value.
func TestCacheKeyGolden(t *testing.T) {
	spec, proc := lateStageSpec(t)
	opts := Options{Seed: 7, MaxEvals: 16, PatternIter: 8, Mode: hybrid.Hybrid}
	const want = "016dcbbec5f1189314d746904606dbabb41abb2a57148d259cd4dde7c0581a75"
	if got := CacheKey(spec, proc, opts); got != want {
		t.Fatalf("CacheKey drifted: got %s, want %s (key version %d)", got, want, KeyVersion)
	}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	res := &Result{Cost: 1, Evals: 10, Sizing: opamp.Amp{W1: 2e-6}}
	c.Put("a", res)
	got, ok := c.Get("a")
	if !ok || got.Cost != 1 || got.Evals != 10 {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
	// Returned result is a copy: mutating it must not poison the cache.
	got.Cost = 99
	if again, _ := c.Get("a"); again.Cost != 1 {
		t.Fatal("cache entry aliased by caller mutation")
	}

	c.Put("b", &Result{Cost: 2})
	c.Get("a") // refresh a → b is now least recent
	c.Put("c", &Result{Cost: 3})
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU kept the least-recent entry")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("LRU evicted the refreshed entry")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 4 || st.Evicted != 1 || st.Puts != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{
		Sizing:   opamp.Amp{W1: 3e-6, IRef: 20e-6, CC: 1e-13},
		Feasible: true, Evals: 123, Cost: 0.5, EvalsToFeasible: 9,
		Report: hybrid.SpecReport{Failures: []string{"x"}},
	}
	c1.Put("deadbeef", want)

	// A separate cache instance over the same directory stands in for a
	// fresh process: the entry must come back from disk, byte-faithful.
	c2, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("deadbeef")
	if !ok {
		t.Fatal("disk miss")
	}
	if got.Cost != want.Cost || got.Evals != want.Evals || !got.Feasible {
		t.Fatalf("got %+v", got)
	}
	if sz := got.Sizing; sz.W1 != 3e-6 || sz.IRef != 20e-6 {
		t.Fatalf("sizing did not round-trip: %#v", got.Sizing)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Second Get is served from memory.
	c2.Get("deadbeef")
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// A corrupt entry is a miss, not a crash.
	if err := os.WriteFile(filepath.Join(dir, "bad.gob"), []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("bad"); ok {
		t.Fatal("corrupt entry served")
	}
}

// TestSynthesizeCacheHitSkipsEvaluator drives the cache through
// Synthesize itself: the second identical request replays the result
// with zero evaluator calls, warm-start differences notwithstanding.
func TestSynthesizeCacheHitSkipsEvaluator(t *testing.T) {
	spec, proc := lateStageSpec(t)
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Seed: 3, MaxEvals: 200, PatternIter: 60,
		Mode: hybrid.EquationOnly, Cache: cache,
	}
	cold, err := Synthesize(context.Background(), spec, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Evals == 0 {
		t.Fatalf("cold run: hit=%v evals=%d", cold.CacheHit, cold.Evals)
	}
	warm, err := Synthesize(context.Background(), spec, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Evals != 0 {
		t.Fatalf("warm run: hit=%v evals=%d", warm.CacheHit, warm.Evals)
	}
	if warm.Cost != cold.Cost || warm.Feasible != cold.Feasible {
		t.Fatal("cached result differs from the original")
	}
	// A warm-started request for the same spec is the same content
	// address — the retarget flow turns into a cache hit too.
	retarget := opts
	retarget.WarmStart = &cold.Sizing
	hit, err := Synthesize(context.Background(), spec, proc, retarget)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("warm-started request missed the cache")
	}
	if st := cache.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheHitPreservesEvalsToFeasible pins the racing metric through a
// cache replay. EvalsToFeasible documents three distinct outcomes: 0 =
// the start point was already feasible, -1 = none found, n>0 = the
// original search spent n evaluations reaching feasibility. The replay
// path used to rewrite n>0 to 0 — conflating "replayed for free" (which
// CacheHit already signals) with "feasible from the start" and
// corrupting every consumer that compares search effort across runs.
func TestCacheHitPreservesEvalsToFeasible(t *testing.T) {
	spec, proc := lateStageSpec(t)
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Reject the first few candidates so the cold search pays a nonzero
	// price for feasibility (the equation seed alone would cost 0). The
	// hook is an execution knob: it does not move the content address.
	opts := Options{
		Seed: 5, MaxEvals: 200, PatternIter: 60,
		Mode: hybrid.EquationOnly, Cache: cache,
		EvalHook: func(_ context.Context, eval int) error {
			if eval <= 4 {
				return fmt.Errorf("injected warm-up rejection at eval %d", eval)
			}
			return nil
		},
	}
	cold, err := Synthesize(context.Background(), spec, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.EvalsToFeasible <= 0 {
		t.Fatalf("cold run EvalsToFeasible = %d, hook should have delayed feasibility", cold.EvalsToFeasible)
	}
	warm, err := Synthesize(context.Background(), spec, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Evals != 0 {
		t.Fatalf("warm run: hit=%v evals=%d", warm.CacheHit, warm.Evals)
	}
	if warm.EvalsToFeasible != cold.EvalsToFeasible {
		t.Fatalf("cache replay corrupted EvalsToFeasible: stored %d, replayed %d",
			cold.EvalsToFeasible, warm.EvalsToFeasible)
	}
}

// TestCacheDiskConcurrentSameKeyPut hammers one key with concurrent
// writers — the daemon's single-flight makes same-key writes unlikely
// but not impossible (CLI runs and the service can share a -cache-dir)
// — while fresh cache instances read the entry from disk. The
// write-sync-rename protocol must never let a reader observe a torn or
// missing entry once the first Put has landed.
func TestCacheDiskConcurrentSameKeyPut(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{
		Sizing:   opamp.Amp{W1: 3e-6, IRef: 20e-6, CC: 1e-13},
		Feasible: true, Evals: 7, Cost: 0.25,
	}
	writer.Put("cafe", res)

	const writers, reads = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := *res
			r.Evals = 100 + w // distinct payloads, same key
			for i := 0; i < reads; i++ {
				writer.Put("cafe", &r)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reads; i++ {
			// A fresh instance per read forces the disk path (no memory
			// tier to hide a torn file behind).
			reader, err := NewCache(0, dir)
			if err != nil {
				errs <- err
				return
			}
			got, ok := reader.Get("cafe")
			if !ok {
				errs <- fmt.Errorf("read %d: entry missing mid-write", i)
				return
			}
			if got.Cost != res.Cost || !got.Feasible {
				errs <- fmt.Errorf("read %d: torn entry %+v", i, got)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// No temp droppings left behind once all writers are done.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}

	// The survivor under the final name must be exactly one complete
	// entry from one of the writers — write-sync-rename-syncdir ends
	// with a durable, whole file, never an interleaving.
	final, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := final.Get("cafe")
	if !ok {
		t.Fatal("entry missing after all writers finished")
	}
	valid := got.Evals == res.Evals
	for w := 0; w < writers; w++ {
		valid = valid || got.Evals == 100+w
	}
	if !valid || got.Cost != res.Cost || !got.Feasible {
		t.Fatalf("final entry %+v is not any writer's payload", got)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected exactly one durable entry, found %v", entries)
	}
}
