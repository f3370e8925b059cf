// Package sched provides the shared concurrency substrate for the
// synthesis engine: a bounded worker budget (Pool) and a deterministic
// DAG runner (Run) for design points whose warm-start sources must
// complete before they dispatch.
//
// The paper's flow is embarrassingly parallel almost everywhere — the
// ~20 exact MDAC design points of a study, the independent restarts of
// one synthesis, and the per-resolution studies of a sweep are all
// independent evaluator-bound work — except for retargeting, where a
// design point prefers to seed from a neighbouring completed result.
// sched models that preference as an explicit dependency edge so the
// parallel schedule sees exactly the warm sources the serial schedule
// would, which is what makes the parallel study bit-identical to the
// serial one.
//
// Deadlock freedom under nesting (a sweep running studies, each study
// running design points, each design point running restarts, all on one
// Pool) comes from a simple rule: no caller ever blocks waiting for a
// token. A worker slot is acquired with TryAcquire only, the calling
// goroutine always executes work itself, and a helper keeps its slot
// only while it finds ready work, so forward progress never depends on
// a token being released.
//
// sched is also the engine's fault boundary. Both ForEach and Run accept
// a context: cancellation stops new work from dispatching (in-flight
// tasks finish their current unit) and surfaces as ctx.Err(). A panic in
// any task — whether it runs on a helper goroutine or inline on the
// caller — is recovered and converted into a *PanicError instead of
// crashing the process, and the DAG keeps draining deterministically so
// every started node is accounted for before Run returns.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic converted into an error at the sched
// fault boundary. Label names the unit of work that panicked (the DAG
// node's Label, or the task index), Value is the recovered panic value,
// and Stack is the panicking goroutine's stack trace.
type PanicError struct {
	Label string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: panic in %s: %v", e.Label, e.Value)
}

// Pool is a shared bounded budget of extra worker goroutines. A Pool
// with N workers allows at most N-1 spawned helpers: the calling
// goroutine is always the N-th worker, which is what makes nested use
// (study → design point → restarts on one Pool) deadlock-free.
type Pool struct {
	workers int
	tokens  chan struct{}

	// Load gauges for operational visibility (the adcsynd /metrics
	// endpoint scrapes them): queued counts tasks admitted to a ForEach
	// or Run that have not started executing yet, inflight counts tasks
	// currently executing. Both are plain atomics so the hot dispatch
	// path pays two adds per task.
	queued   atomic.Int64
	inflight atomic.Int64
}

// NewPool sizes a budget of `workers` concurrent executors. workers <= 0
// defaults to GOMAXPROCS; workers == 1 makes every ForEach and Run fully
// serial on the calling goroutine, in deterministic index order.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
}

// Workers reports the configured concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Queued reports how many admitted tasks across all active ForEach and
// Run calls have not started executing yet. It is a point-in-time gauge
// for monitoring, not a synchronization primitive.
func (p *Pool) Queued() int64 { return p.queued.Load() }

// InFlight reports how many tasks are executing right now across all
// active ForEach and Run calls on this pool.
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// TryAcquire claims a helper slot without blocking. Callers that get a
// slot must Release it when the helper goroutine exits.
func (p *Pool) TryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (p *Pool) Release() { <-p.tokens }

// ForEach runs f(i) for every i in [0, n), spreading the calls over the
// calling goroutine plus as many helpers as the pool can spare right
// now. With a 1-worker pool the calls happen inline in index order.
//
// Cancelling ctx stops further indices from dispatching — tasks already
// running finish — and ForEach returns ctx.Err(). A panicking task does
// not crash the process: the panic is recovered, dispatch stops, and the
// lowest-index *PanicError is returned. Either way the caller must treat
// its per-index outputs as partial: an index may never have run.
func (p *Pool) ForEach(ctx context.Context, n int, f func(int)) error {
	if n <= 0 {
		return nil
	}
	var next atomic.Int64
	var aborted atomic.Bool
	var claimed atomic.Int64
	p.queued.Add(int64(n))
	// Indices never claimed (cancellation, panic abort) leave the queued
	// gauge high; settle the residue once every worker has stopped.
	defer func() { p.queued.Add(claimed.Load() - int64(n)) }()
	var mu sync.Mutex
	panics := make(map[int]*PanicError)
	runOne := func(i int) {
		p.inflight.Add(1)
		defer p.inflight.Add(-1)
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				panics[i] = &PanicError{
					Label: fmt.Sprintf("task %d", i),
					Value: r,
					Stack: debug.Stack(),
				}
				mu.Unlock()
				aborted.Store(true)
			}
		}()
		f(i)
	}
	work := func() {
		for !aborted.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			claimed.Add(1)
			p.queued.Add(-1)
			runOne(i)
		}
	}
	var wg sync.WaitGroup
	for spawned := 1; spawned < n && p.TryAcquire(); spawned++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Release()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Lowest task index wins so the reported fault is deterministic.
	var first *PanicError
	firstIdx := -1
	for i, pe := range panics {
		if first == nil || i < firstIdx {
			first, firstIdx = pe, i
		}
	}
	if first != nil {
		return first
	}
	return nil
}

// Node is one unit of DAG work. Deps lists the indices of nodes that
// must complete before this one runs — for a retargeting study, the
// design points this node would consider as warm-start seeds. Label
// names the node in fault reports (a panicking node surfaces as a
// *PanicError carrying it); empty labels fall back to the node index.
type Node struct {
	Deps  []int
	Label string
	Run   func(ctx context.Context) error
}

// Run executes the nodes respecting dependency edges, with at most
// pool.Workers() nodes in flight. Ready nodes dispatch lowest-index
// first, so a 1-worker pool reproduces the serial schedule exactly.
//
// Every worker loops — the caller, and each helper holding a pool slot:
// it takes the lowest-index ready node under one lock, runs it outside
// the lock, and takes the next, so no slot idles while a node is ready.
// A helper returns its slot when none is ready; the caller waits for
// in-flight nodes, and Run returns once every helper has returned.
//
// Once any node fails, no further nodes start (in-flight ones finish);
// Run returns the error of the lowest-index failed node, which is
// deterministic regardless of worker count. Cancelling ctx likewise
// stops new nodes from starting: the remaining nodes drain unrun with
// ctx.Err() recorded, so a cancelled Run always reports an error that
// satisfies errors.Is(err, ctx.Err()). A panicking node is isolated at
// this boundary — recovered into a *PanicError naming the node — and
// never takes down the process or wedges the drain.
func Run(ctx context.Context, pool *Pool, nodes []Node) error {
	n := len(nodes)
	if n == 0 {
		return nil
	}
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, nd := range nodes {
		for _, d := range nd.Deps {
			if d < 0 || d >= n {
				return fmt.Errorf("sched: node %d depends on out-of-range node %d", i, d)
			}
			if d >= i {
				// Edges must point backwards: warm sources precede their
				// consumers in sorted key order, and this rules out cycles.
				return fmt.Errorf("sched: node %d depends on later node %d", i, d)
			}
			indeg[i]++
			dependents[d] = append(dependents[d], i)
		}
	}

	ready := make([]bool, n)
	readyCount := 0
	for i := range nodes {
		if indeg[i] == 0 {
			ready[i] = true
			readyCount++
		}
	}
	popMin := func() int {
		for i := range ready {
			if ready[i] {
				ready[i] = false
				readyCount--
				return i
			}
		}
		return -1
	}

	pool.queued.Add(int64(n))
	// Every node leaves the ready set exactly once — run or drained — so
	// the gauge settles to its prior value when Run returns.

	// exec runs one node behind the panic fault boundary.
	exec := func(i int) (err error) {
		pool.inflight.Add(1)
		defer pool.inflight.Add(-1)
		defer func() {
			if r := recover(); r != nil {
				label := nodes[i].Label
				if label == "" {
					label = fmt.Sprintf("node %d", i)
				}
				err = &PanicError{Label: label, Value: r, Stack: debug.Stack()}
			}
		}()
		return nodes[i].Run(ctx)
	}

	var mu sync.Mutex         // guards the ready set, left and failed
	wake := sync.NewCond(&mu) // the caller waits on it for in-flight nodes
	var helpers sync.WaitGroup
	errs := make([]error, n)
	left := n // nodes not yet run or drained
	failed := false
	finish := func(i int) {
		left--
		if errs[i] != nil {
			failed = true
		}
		for _, d := range dependents[i] {
			indeg[d]--
			if indeg[d] == 0 {
				ready[d] = true
				readyCount++
			}
		}
		wake.Broadcast()
	}
	var work func(helper bool)
	work = func(helper bool) {
		mu.Lock()
		defer mu.Unlock()
		// Every edge points backwards (d < i), so the graph is acyclic: a
		// worker finds a ready node whenever none is in flight.
		for left > 0 {
			i := popMin()
			if i < 0 {
				if helper {
					return
				}
				wake.Wait()
				continue
			}
			pool.queued.Add(-1)
			if err := ctx.Err(); failed || err != nil {
				// Drain without running. After a cancellation the drained
				// node records ctx.Err(), so the cause is never lost.
				errs[i] = err
				finish(i)
				continue
			}
			// Start a helper for each other ready node while the pool has
			// spare slots; one that finds none ready returns its slot.
			for readyCount > 0 && pool.TryAcquire() {
				helpers.Add(1)
				go func() {
					defer helpers.Done()
					defer pool.Release()
					work(true)
				}()
			}
			mu.Unlock()
			errs[i] = exec(i) // only this worker writes errs[i]
			mu.Lock()
			finish(i)
		}
	}
	work(false)
	helpers.Wait()
	return firstErr(errs)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
