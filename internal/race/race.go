// Package race is the successive-halving scheduler behind the study
// engine's racing mode: every enumeration candidate runs at a cheap
// low-fidelity synthesis budget first, the top half (by feasibility,
// then cost) is promoted, and only the survivors pay for full fidelity.
// It is the mechanized analogue of the paper's designer pruning clearly
// losing stage-resolution configurations by inspection before spending
// simulation time on them.
//
// The package is pure planning and ranking — no goroutines, no
// randomness, no floating-point reductions — so the determinism contract
// of the surrounding engine (bit-identical studies for any worker count)
// reduces to calling these functions with deterministic inputs.
package race

import "sort"

// Standing is one candidate's costed outcome at a rung: its index in
// the enumeration order, whether every stage was feasible, and the total
// power-based cost the study ranks on.
type Standing struct {
	Index    int
	Feasible bool
	Cost     float64
}

// Rung is one fidelity level of a racing plan. Divisor scales the
// synthesis budget down (MaxEvals and PatternIter are divided by it,
// floored at one evaluation); Keep is how many candidates survive into
// the next rung (0 on the final rung — nothing follows it).
type Rung struct {
	Divisor int
	Keep    int
}

// Plan lays out a successive-halving schedule for n candidates over the
// given number of rungs with fidelity ratio eta between adjacent rungs:
// rung r of R runs at budget divisor eta^(R-1-r), so the final rung is
// always full fidelity (divisor 1). Each rung promotes the top half of
// its entrants (ceil/2, never fewer than one); the final rung keeps 0.
// Out-of-range arguments are clamped (rungs ≥ 1, eta ≥ 2). A
// single-rung plan, {Divisor: 1, Keep: 0}, is the uniform-budget flow:
// the study engine runs exactly that plan when racing is off.
func Plan(n, rungs, eta int) []Rung {
	if rungs < 1 {
		rungs = 1
	}
	if eta < 2 {
		eta = 2
	}
	if n < 1 {
		n = 1
	}
	out := make([]Rung, rungs)
	entrants := n
	for r := 0; r < rungs; r++ {
		div := 1
		for k := 0; k < rungs-1-r; k++ {
			div *= eta
		}
		keep := (entrants + 1) / 2
		if keep < 1 {
			keep = 1
		}
		if r == rungs-1 {
			keep = 0 // nothing follows the full-fidelity rung
		}
		out[r] = Rung{Divisor: div, Keep: keep}
		if keep > 0 {
			entrants = keep
		}
	}
	return out
}

// Promote ranks the standings — fully feasible candidates first, then
// ascending cost, with the enumeration index as the deterministic tie
// breaker — and returns the indices of the top keep candidates in
// ascending index order, ready to drive the next rung in the same
// deterministic iteration order every worker count produces. The input
// slice is not modified. keep values beyond len(standings) promote
// everyone.
func Promote(standings []Standing, keep int) []int {
	if keep <= 0 {
		return nil
	}
	ranked := append([]Standing(nil), standings...)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return a.Index < b.Index
	})
	if keep > len(ranked) {
		keep = len(ranked)
	}
	out := make([]int, keep)
	for i := 0; i < keep; i++ {
		out[i] = ranked[i].Index
	}
	sort.Ints(out)
	return out
}
