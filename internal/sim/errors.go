package sim

import "fmt"

// ConvergenceError is a typed Newton-convergence failure. It separates
// "this candidate circuit cannot be solved" — the routine outcome of an
// optimizer probing an infeasible sizing, which the annealer skips —
// from engine faults (singular systems, bad netlists, panics), which
// must abort a study. Callers unwrap it with errors.As through the
// hybrid evaluator's wrapping.
type ConvergenceError struct {
	Analysis   string  // which analysis failed: "dc" or "transient"
	Time       float64 // transient time point, seconds (0 for DC)
	Iterations int     // Newton iterations spent before giving up
	WorstNode  string  // node with the largest final voltage update
	WorstDelta float64 // that update's magnitude, volts
	Detail     string  // optional solver context (e.g. final node state)
}

func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("sim: %s Newton did not converge in %d iterations", e.Analysis, e.Iterations)
	if e.Analysis == "transient" {
		msg = fmt.Sprintf("sim: transient Newton did not converge at t=%g in %d iterations", e.Time, e.Iterations)
	}
	if e.WorstNode != "" {
		msg += fmt.Sprintf(" (worst node %s, Δ=%.3g V)", e.WorstNode, e.WorstDelta)
	}
	if e.Detail != "" {
		msg += " — " + e.Detail
	}
	return msg
}
