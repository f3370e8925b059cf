// counters.go exposes kernel-level observability: how many numeric
// factorizations the Newton loops performed, how many solves reused a
// stale factorization (Shamanskii), how often the DC loop's reuse
// diverged and fell back to full Newton, and how often the
// static-ordered pivot path hit a zero pivot and dropped to partial
// pivoting. The counters are
// package-global atomics, but the Newton hot loops never touch them:
// each analysis accumulates into plain int64 fields on its kernelLU and
// flushes once at analysis end.
package sim

import (
	"sync/atomic"

	"pipesyn/internal/la"
)

// KernelStats is a snapshot of the kernel counters since process start.
type KernelStats struct {
	Factorizations   int64 // numeric factorizations performed
	ReusedSolves     int64 // Newton solves served by a stale factorization
	ReuseFallbacks   int64 // DC reuse divergences that re-ran with full Newton
	OrderedFallbacks int64 // static-order factorizations that hit a zero pivot
}

var kstats struct {
	factorizations   atomic.Int64
	reusedSolves     atomic.Int64
	reuseFallbacks   atomic.Int64
	orderedFallbacks atomic.Int64
}

// ReadKernelStats returns the current counter values.
func ReadKernelStats() KernelStats {
	var s KernelStats
	s.Factorizations = kstats.factorizations.Load()
	s.ReusedSolves = kstats.reusedSolves.Load()
	s.ReuseFallbacks = kstats.reuseFallbacks.Load()
	s.OrderedFallbacks = kstats.orderedFallbacks.Load()
	return s
}

// kernelLU is the Newton loops' linear solver: a static-ordered sparse
// factorization when the compiled circuit admits one, with a
// partial-pivot fallback. The ordered path skips the per-factor pivot
// search (and its occupancy bookkeeping), which is the bulk of the
// factor cost on MNA-sized systems; if a numeric zero pivot appears
// under the fixed order, the analysis permanently drops to partial
// pivoting, whose pivot search is authoritative for genuine
// singularity. It also carries the locally accumulated counters.
type kernelLU struct {
	ord    *la.SparseLU // static-ordered solver, nil when no order exists
	pp     *la.SparseLU // partial-pivot solver (always present)
	live   *la.SparseLU // solver holding the current factorization
	useOrd bool

	factors, reused, fallbacks, ordFallbacks int64
}

func newKernelLU(cc *compiled) *kernelLU {
	lu := &kernelLU{pp: la.NewSparseLU(cc.sym)}
	if cc.symOrd != nil {
		lu.ord = la.NewSparseLU(cc.symOrd)
	}
	lu.reset()
	return lu
}

// reset re-arms the ordered fast path for a new top-level analysis, so a
// zero-pivot fallback in one analysis never leaks into the next (a warm
// Kernel shares its workspaces across candidates, and binding order must
// not change any candidate's result).
func (lu *kernelLU) reset() {
	lu.useOrd = lu.ord != nil
	if lu.useOrd {
		lu.live = lu.ord
	} else {
		lu.live = lu.pp
	}
}

// factor refreshes the numeric factorization of a.
func (lu *kernelLU) factor(a *la.Matrix) error {
	lu.factors++
	if lu.useOrd {
		if err := lu.ord.NumericFactor(a); err == nil {
			lu.live = lu.ord
			return nil
		}
		lu.ordFallbacks++
		lu.useOrd = false
		lu.live = lu.pp
	}
	return lu.pp.NumericFactor(a)
}

// solveInto solves against the current factorization.
func (lu *kernelLU) solveInto(x, b []float64) { lu.live.SolveInto(x, b) }

// flush publishes the locally accumulated counts to the package atomics
// and zeroes them. Called once per top-level analysis.
func (lu *kernelLU) flush() {
	if lu.factors != 0 {
		kstats.factorizations.Add(lu.factors)
		lu.factors = 0
	}
	if lu.reused != 0 {
		kstats.reusedSolves.Add(lu.reused)
		lu.reused = 0
	}
	if lu.fallbacks != 0 {
		kstats.reuseFallbacks.Add(lu.fallbacks)
		lu.fallbacks = 0
	}
	if lu.ordFallbacks != 0 {
		kstats.orderedFallbacks.Add(lu.ordFallbacks)
		lu.ordFallbacks = 0
	}
}
