package sim

import (
	"fmt"
	"math"

	"pipesyn/internal/device"
	"pipesyn/internal/la"
	"pipesyn/internal/netlist"
)

// DCOpts tunes the operating-point solver.
type DCOpts struct {
	MaxIter     int     // Newton iterations per continuation step (default 150)
	VNTol       float64 // absolute voltage tolerance (default 1 µV)
	RelTol      float64 // relative tolerance (default 1e-3)
	Gmin        float64 // floor conductance from every node to ground (default 1e-12)
	VLimit      float64 // max Newton voltage step (default 0.5 V)
	SwitchPhase int     // which clock phase is active for clocked switches (0 = none)
}

func (o *DCOpts) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 150
	}
	if o.VNTol == 0 {
		o.VNTol = 1e-6
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-3
	}
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	if o.VLimit == 0 {
		o.VLimit = 0.5
	}
}

// DCResult is a converged operating point.
type DCResult struct {
	V          map[string]float64   // node voltages
	MOS        map[string]device.OP // per-transistor operating points
	BranchI    map[string]float64   // currents through V/E elements
	Iterations int                  // total Newton iterations spent
	x          []float64
	layout     *Layout
	binding    uint64 // compiled.binding at solve time (Kernel.TranFrom checks it)
}

// Voltage returns a node voltage (0 for ground, error for unknown nodes).
func (r *DCResult) Voltage(node string) (float64, error) {
	if isGround(node) {
		return 0, nil
	}
	v, ok := r.V[node]
	if !ok {
		return 0, fmt.Errorf("sim: no node %q in solution", node)
	}
	return v, nil
}

// SupplyPower sums V·I over DC voltage sources, giving the static power
// drawn from the supplies (positive = dissipated in the circuit).
func (r *DCResult) SupplyPower(c *netlist.Circuit) float64 {
	p := 0.0
	for _, e := range c.Elements {
		if e.Type != netlist.VSource || e.Src == nil {
			continue
		}
		if i, ok := r.BranchI[e.Name]; ok {
			// Branch current flows from + terminal through the source;
			// a source delivering power has V·I < 0 in MNA convention.
			p -= e.Src.DC * i
		}
	}
	return p
}

// OP computes the DC operating point. It first tries Newton from a flat
// start; on failure it walks a gmin-stepping ladder, then source
// stepping, mirroring Berkeley SPICE's continuation strategy. Each
// Newton solve reuses one factorization across iterations while the
// step contracts (modified/Shamanskii Newton) and falls back to full
// Newton if that diverges; see newton.
func OP(c *netlist.Circuit, opts DCOpts) (*DCResult, error) {
	cc, err := compile(c)
	if err != nil {
		return nil, err
	}
	return opCompiled(cc, opts)
}

// opCompiled is the compiled-circuit operating-point solver: Tran and
// Kernel enter here to reuse an existing compilation and its warm
// workspaces instead of re-compiling the netlist.
func opCompiled(cc *compiled, opts DCOpts) (*DCResult, error) {
	opts.defaults()
	// Re-arm the ordered-pivot fast path for this analysis and publish the
	// locally accumulated kernel counters when it finishes, so a fallback
	// in one analysis (or one Kernel binding) never leaks into the next.
	ws := cc.dcWS()
	ws.lu.reset()
	defer ws.lu.flush()
	x := make([]float64, cc.layout.Size)
	totalIter := 0

	try := func(x0 []float64, gmin, srcScale float64) ([]float64, int, error) {
		return newton(cc, x0, gmin, srcScale, opts)
	}

	// 1. Plain Newton.
	if sol, n, err := try(x, opts.Gmin, 1); err == nil {
		totalIter += n
		return finishDC(cc, sol, totalIter), nil
	} else {
		totalIter += n
	}

	// 2. Gmin stepping: solve with a heavy shunt everywhere, then relax.
	xg := make([]float64, cc.layout.Size)
	ok := true
	for _, g := range []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10, opts.Gmin} {
		sol, n, err := try(xg, g, 1)
		totalIter += n
		if err != nil {
			ok = false
			break
		}
		xg = sol
	}
	if ok {
		return finishDC(cc, xg, totalIter), nil
	}

	// 3. Source stepping: ramp every independent source from 10% to 100%.
	xs := make([]float64, cc.layout.Size)
	for _, scale := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		sol, n, err := try(xs, opts.Gmin, scale)
		totalIter += n
		if err != nil {
			// %w keeps the typed ConvergenceError reachable via errors.As
			// so callers can classify the failure as an infeasible
			// candidate rather than an engine fault.
			return nil, fmt.Errorf("sim: DC failed to converge (newton, gmin and source stepping exhausted) at scale %g: %w", scale, err)
		}
		xs = sol
	}
	return finishDC(cc, xs, totalIter), nil
}

func finishDC(cc *compiled, x []float64, iters int) *DCResult {
	r := &DCResult{
		V:       map[string]float64{},
		MOS:     map[string]device.OP{},
		BranchI: map[string]float64{},
		x:       x,
		layout:  cc.layout,
		binding: cc.binding,
	}
	for name, i := range cc.layout.NodeIndex {
		r.V[name] = x[i]
	}
	for name, i := range cc.layout.BranchIndex {
		r.BranchI[name] = x[i]
	}
	for i := range cc.mosElems {
		m := &cc.mosElems[i]
		var op device.OP
		m.model.EvalInto(&op, nodeV(x, m.d), nodeV(x, m.g), nodeV(x, m.s), nodeV(x, m.b))
		r.MOS[m.name] = op
	}
	r.Iterations = iters
	return r
}

// newton runs damped Newton–Raphson until the voltage update is below
// tolerance. srcScale scales independent sources (for source stepping).
// The loop runs entirely inside the compiled circuit's DC workspace:
// each iteration copies the per-call baseline (constant stamps, gmin
// shunts, scaled sources), stamps only the MOS companions, and factors
// and solves in place — no heap allocation per iteration. The Jacobian
// factorization is reused while the step norm contracts and refreshed
// on slow convergence (modified Newton); full Newton runs only as the
// divergence fallback and as the cc.fullNewton oracle.
func newton(cc *compiled, x0 []float64, gmin, srcScale float64, opts DCOpts) ([]float64, int, error) {
	ws := cc.dcWS()
	ws.prepare(cc, gmin, srcScale, opts.SwitchPhase)
	reuse := !cc.fullNewton
	sol, n, err := newtonLoop(cc, ws, x0, opts, reuse)
	if err != nil && reuse {
		// Divergence fallback: retry with plain full Newton before the
		// caller walks the continuation ladders.
		if _, diverged := err.(*ConvergenceError); diverged {
			ws.lu.fallbacks++
			sol2, n2, err2 := newtonLoop(cc, ws, x0, opts, false)
			return sol2, n + n2, err2
		}
	}
	return sol, n, err
}

func newtonLoop(cc *compiled, ws *dcWorkspace, x0 []float64, opts DCOpts, reuse bool) ([]float64, int, error) {
	x := ws.x
	copy(x, x0)
	worstIdx, worstDelta := -1, 0.0
	lastStep, prevStep := math.Inf(1), math.Inf(1)
	reuseCount := 0
	confirm := false
	for iter := 1; iter <= opts.MaxIter; iter++ {
		fresh := !reuse || iter == 1 || confirm || reuseCount >= 6 || lastStep > 0.5*prevStep
		confirm = false
		if fresh {
			reuseCount = 0
		} else {
			reuseCount++
		}
		if err := ws.iterateReuse(cc, fresh); err != nil {
			return nil, iter, fmt.Errorf("sim: singular MNA matrix: %w", err)
		}
		xNew := ws.xNew
		// Damped update: limit the largest node-voltage change.
		maxDelta := 0.0
		maxIdx := -1
		for i := 0; i < len(cc.layout.Nodes); i++ {
			if d := math.Abs(xNew[i] - x[i]); d > maxDelta {
				maxDelta = d
				maxIdx = i
			}
		}
		worstIdx, worstDelta = maxIdx, maxDelta
		prevStep, lastStep = lastStep, maxDelta
		alpha := 1.0
		if maxDelta > opts.VLimit {
			alpha = opts.VLimit / maxDelta
		}
		converged := true
		for i := range x {
			step := alpha * (xNew[i] - x[i])
			x[i] += step
			if i < len(cc.layout.Nodes) {
				if math.Abs(step) > opts.VNTol+opts.RelTol*math.Abs(x[i]) {
					converged = false
				}
			}
		}
		if converged && alpha == 1.0 {
			if !fresh {
				// A stale factorization contracts only linearly, so a
				// small step does not yet bound the error; confirm with
				// one fresh-factor iteration, which lands the point with
				// full Newton's accuracy.
				confirm = true
				continue
			}
			// Detach the solution from the workspace: callers hold it
			// across later newton calls and in DCResult.
			return append([]float64(nil), x...), iter, nil
		}
	}
	worst := ""
	if worstIdx >= 0 {
		worst = cc.layout.Nodes[worstIdx]
	}
	return nil, opts.MaxIter, &ConvergenceError{
		Analysis: "dc", Iterations: opts.MaxIter,
		WorstNode: worst, WorstDelta: worstDelta,
		Detail: "state: " + cc.layout.describeState(x),
	}
}

func nodeV(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}

func addA(a *la.Matrix, i, j int, v float64) {
	if i >= 0 && j >= 0 {
		a.Add(i, j, v)
	}
}

func addRHS(b []float64, i int, v float64) {
	if i >= 0 {
		b[i] += v
	}
}

// stampConductance places a two-terminal conductance between nodes p and n.
func stampConductance(a *la.Matrix, p, n int, g float64) {
	addA(a, p, p, g)
	addA(a, n, n, g)
	addA(a, p, n, -g)
	addA(a, n, p, -g)
}

// stampVCCS places i(p→n) = g·(vcp − vcn).
func stampVCCS(a *la.Matrix, p, n, cp, cn int, g float64) {
	addA(a, p, cp, g)
	addA(a, p, cn, -g)
	addA(a, n, cp, -g)
	addA(a, n, cn, g)
}

// stampVoltageBranch places the incidence pattern shared by V and E.
func stampVoltageBranch(a *la.Matrix, p, n, br int) {
	addA(a, br, p, 1)
	addA(a, br, n, -1)
	addA(a, p, br, 1)
	addA(a, n, br, -1)
}
