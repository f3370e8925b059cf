package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolDefaultsAndBounds(t *testing.T) {
	if w := NewPool(0).Workers(); w < 1 {
		t.Fatalf("default pool has %d workers", w)
	}
	p := NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	// 3 workers = caller + 2 helper slots.
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("could not claim the two helper slots")
	}
	if p.TryAcquire() {
		t.Fatal("claimed a third helper slot from a 3-worker pool")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		var hits [100]atomic.Int32
		p.ForEach(context.Background(), len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestForEachSerialOrder(t *testing.T) {
	p := NewPool(1)
	var order []int
	p.ForEach(context.Background(), 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("1-worker ForEach out of order: %v", order)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	var cur, peak atomic.Int32
	var mu sync.Mutex
	p.ForEach(context.Background(), 64, func(i int) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		for k := 0; k < 1000; k++ {
			_ = k * k
		}
		cur.Add(-1)
	})
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks from a %d-worker pool", got, workers)
	}
}

// TestForEachNestedDoesNotDeadlock is the sweep→study→restart shape: every
// outer task fans out again on the same pool.
func TestForEachNestedDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	var total atomic.Int32
	p.ForEach(context.Background(), 8, func(i int) {
		p.ForEach(context.Background(), 8, func(j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("nested ForEach ran %d of 64 tasks", total.Load())
	}
}

func TestRunRespectsDeps(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		const n = 30
		var doneAt [n]atomic.Int64
		var clock atomic.Int64
		nodes := make([]Node, n)
		for i := 0; i < n; i++ {
			i := i
			var deps []int
			if i >= 2 {
				deps = []int{i - 2}
			}
			nodes[i] = Node{Deps: deps, Run: func(context.Context) error {
				for _, d := range nodes[i].Deps {
					if doneAt[d].Load() == 0 {
						t.Errorf("node %d ran before dep %d", i, d)
					}
				}
				doneAt[i].Store(clock.Add(1))
				return nil
			}}
		}
		if err := Run(context.Background(), p, nodes); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range doneAt {
			if doneAt[i].Load() == 0 {
				t.Fatalf("workers=%d: node %d never ran", workers, i)
			}
		}
	}
}

func TestRunSerialOrderWithOneWorker(t *testing.T) {
	p := NewPool(1)
	var order []int
	nodes := make([]Node, 12)
	for i := range nodes {
		i := i
		nodes[i] = Node{Run: func(context.Context) error { order = append(order, i); return nil }}
	}
	if err := Run(context.Background(), p, nodes); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial DAG out of order: %v", order)
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4} {
		nodes := []Node{
			{Run: func(context.Context) error { return nil }},
			{Run: func(context.Context) error { return errA }},
			{Run: func(context.Context) error { return errB }},
			{Deps: []int{1}, Run: func(context.Context) error { t.Error("dependent of failed node ran"); return nil }},
		}
		err := Run(context.Background(), NewPool(workers), nodes)
		if !errors.Is(err, errA) && !errors.Is(err, errB) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if workers == 1 && !errors.Is(err, errA) {
			t.Fatalf("serial run must surface the first error, got %v", err)
		}
	}
}

func TestRunRejectsForwardAndBogusEdges(t *testing.T) {
	ok := func(context.Context) error { return nil }
	if err := Run(context.Background(), NewPool(1), []Node{{Deps: []int{1}, Run: ok}, {Run: ok}}); err == nil {
		t.Fatal("forward edge accepted")
	}
	if err := Run(context.Background(), NewPool(1), []Node{{Deps: []int{-1}, Run: ok}}); err == nil {
		t.Fatal("negative edge accepted")
	}
	if err := Run(context.Background(), NewPool(1), nil); err != nil {
		t.Fatalf("empty DAG: %v", err)
	}
}

// TestRunManyNodesUnderRace gives the race detector a dense interleaving
// to chew on (the `make race` CI lane).
func TestRunManyNodesUnderRace(t *testing.T) {
	p := NewPool(8)
	const n = 200
	results := make([]int, n)
	nodes := make([]Node, n)
	for i := range nodes {
		i := i
		var deps []int
		if i > 0 {
			deps = append(deps, (i-1)/2) // binary-tree shape
		}
		nodes[i] = Node{Deps: deps, Run: func(context.Context) error {
			v := i
			for _, d := range nodes[i].Deps {
				v += results[d] // cross-goroutine read through the DAG edge
			}
			results[i] = v
			return nil
		}}
	}
	if err := Run(context.Background(), p, nodes); err != nil {
		t.Fatal(err)
	}
	if results[0] != 0 {
		t.Fatal("root result wrong")
	}
	for i := 1; i < n; i++ {
		if results[i] != i+results[(i-1)/2] {
			t.Fatalf("node %d result %d, want %d", i, results[i], i+results[(i-1)/2])
		}
	}
	_ = fmt.Sprint(results[n-1])
}

// TestRunKeepsEverySlotBusy: on a 2-worker pool running three
// independent nodes, whichever running node finishes first, its worker
// starts the third node while the other is still running.
func TestRunKeepsEverySlotBusy(t *testing.T) {
	for _, finishFirst := range []string{"lower", "higher"} {
		t.Run(finishFirst, func(t *testing.T) {
			started := make(chan int, 3)
			release := [3]chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
			nodes := make([]Node, 3)
			for i := range nodes {
				i := i
				nodes[i] = Node{Run: func(context.Context) error {
					started <- i
					<-release[i]
					return nil
				}}
			}
			done := make(chan error, 1)
			go func() { done <- Run(context.Background(), NewPool(2), nodes) }()
			a, b := <-started, <-started
			if a > b {
				a, b = b, a
			}
			first, other := a, b
			if finishFirst == "higher" {
				first, other = b, a
			}
			close(release[first])
			select {
			case third := <-started:
				close(release[third])
			case <-time.After(5 * time.Second):
				t.Fatalf("node %d finished, node %d still runs, and the third node has not started", first, other)
			}
			close(release[other])
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunRandomDAGs runs seeded random DAGs on 1, 2, 4 and 8 workers:
// every node runs exactly once and never before its deps, one worker
// runs them in the serial lowest-index-ready order, and every helper
// slot is free again as soon as Run returns.
func TestRunRandomDAGs(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		deps := make([][]int, n)
		for i := range deps {
			for d := 0; d < i; d++ {
				if rng.Intn(4) == 0 {
					deps[i] = append(deps[i], d)
				}
			}
		}
		for _, workers := range []int{1, 2, 4, 8} {
			var runs [64]atomic.Int32
			var finished [64]atomic.Bool
			var mu sync.Mutex
			var order []int
			nodes := make([]Node, n)
			for i := range nodes {
				i := i
				nodes[i] = Node{Deps: deps[i], Run: func(context.Context) error {
					for _, d := range deps[i] {
						if !finished[d].Load() {
							t.Errorf("seed %d, %d workers: node %d started before dep %d finished", seed, workers, i, d)
						}
					}
					runs[i].Add(1)
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					runtime.Gosched()
					finished[i].Store(true)
					return nil
				}}
			}
			p := NewPool(workers)
			if err := Run(context.Background(), p, nodes); err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, workers, err)
			}
			for slot := 1; slot < workers; slot++ {
				if !p.TryAcquire() {
					t.Fatalf("seed %d, %d workers: helper slot %d still held after Run returned", seed, workers, slot)
				}
			}
			for i := 0; i < n; i++ {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("seed %d, %d workers: node %d ran %d times", seed, workers, i, got)
				}
			}
			if workers == 1 && !reflect.DeepEqual(order, serialOrder(deps)) {
				t.Fatalf("seed %d: 1-worker order %v, want %v", seed, order, serialOrder(deps))
			}
		}
	}
}

// serialOrder is the 1-worker schedule: each node in turn is the
// lowest-index one whose deps have all run.
func serialOrder(deps [][]int) []int {
	done := make([]bool, len(deps))
	var order []int
	for len(order) < len(deps) {
		for i := range deps {
			if done[i] {
				continue
			}
			ready := true
			for _, d := range deps[i] {
				ready = ready && done[d]
			}
			if ready {
				done[i] = true
				order = append(order, i)
				break
			}
		}
	}
	return order
}
