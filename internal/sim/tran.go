package sim

import (
	"fmt"
	"math"

	"pipesyn/internal/device"
	"pipesyn/internal/la"
	"pipesyn/internal/netlist"
)

// Integrator selects the transient integration method.
type Integrator int

const (
	Trapezoidal Integrator = iota
	BackwardEuler
)

// TranOpts configures a transient run.
type TranOpts struct {
	TStop float64
	TStep float64
	// Two-phase non-overlapping clock for switched-capacitor circuits:
	// phase 1 occupies [0, T/2−Tnov), phase 2 occupies [T/2, T−Tnov).
	// ClockPeriod 0 disables the clock (all clocked switches open).
	ClockPeriod float64
	NonOverlap  float64
	MaxNewton   int
	// Probes names the nodes to record; empty records every node. A name
	// that is neither a circuit node nor ground is an error.
	Probes []string

	// Test seams, set only by this package's tests: method is the
	// integrator after the backward-Euler start-up steps (Trapezoidal
	// when zero), and useICs starts from the node voltages ics instead of
	// a DC solve.
	method Integrator
	useICs bool
	ics    map[string]float64
}

// TranResult holds sampled waveforms.
type TranResult struct {
	T []float64
	V map[string][]float64
}

// Waveform returns a node waveform.
func (r *TranResult) Waveform(node string) ([]float64, error) {
	if isGround(node) {
		w := make([]float64, len(r.T))
		return w, nil
	}
	v, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("sim: no node %q in transient solution", node)
	}
	return v, nil
}

// ClockPhase reports which non-overlapping phase is active at time t.
// Returns 0 during non-overlap gaps.
func ClockPhase(t, period, nonOverlap float64) int {
	if period <= 0 {
		return 0
	}
	tm := math.Mod(t, period)
	if tm < 0 {
		tm += period
	}
	half := period / 2
	switch {
	case tm < half-nonOverlap:
		return 1
	case tm >= half && tm < period-nonOverlap:
		return 2
	default:
		return 0
	}
}

// capRun carries the companion-model memory of one capacitor across the
// accepted steps of a transient run.
type capRun struct {
	capElem
	v float64 // voltage at previous accepted step
	i float64 // current at previous accepted step (for trapezoidal)
}

// mosCaps carries the companion-model memory of one MOSFET's five Meyer
// caps, each array in device.OP order (gs, gd, gb, db, sb): the
// capacitances at the latest Newton iterate, and the branch voltages
// and companion currents at the last accepted step.
type mosCaps struct {
	c, v, i [5]float64
}

// meyerP and meyerN index each Meyer cap's terminals in a MOSFET's
// (d, g, s, b) quadruple, in device.OP order.
var meyerP, meyerN = [5]int{1, 1, 1, 0, 2}, [5]int{2, 0, 3, 3, 3}

// load takes the device's capacitances at the iterate op was evaluated at.
func (mc *mosCaps) load(op *device.OP) {
	mc.c = [5]float64{op.CGS, op.CGD, op.CGB, op.CDB, op.CSB}
}

// dampSteps is how many backward-Euler steps the transient takes from
// t = 0 and from every clock-phase change before it returns to the
// requested method.
const dampSteps = 2

// tranRun holds everything one transient analysis reuses across steps:
// the capacitor companion memory and the step/iteration scratch buffers.
// An accepted step performs no heap allocation; only the rare halving
// rescue path allocates its midpoint state. The compiled circuit keeps
// its tranRun between analyses, and newTranRun resets every field a run
// reads before writing it.
type tranRun struct {
	cc    *compiled
	opts  TranOpts
	caps  []capRun
	mcaps []mosCaps // one per cc.mosElems entry

	// The step being solved: whether it is trapezoidal, and its
	// companion conductance per farad (2/h trapezoidal, 1/h BE).
	trap bool
	gk   float64

	stepA *la.Matrix // step baseline: phase stamps + gmin + companions + sources
	stepB []float64
	a     *la.Matrix // per-Newton-iteration system
	b     []float64
	xNew  []float64
	r     []float64 // modified-Newton residual scratch
	d     []float64 // modified-Newton step scratch
	lu    *kernelLU

	// Modified-Newton factorization state, carried across time steps:
	// within a clock phase at a fixed step width the Jacobian drifts
	// slowly, so the stale factor keeps converging for several steps.
	haveFactor bool
	reuseCount int
	lastPhase  int
	lastH      float64

	// Predictor history: the state the last accepted step started from,
	// that step's width and phase, and whether it was trapezoidal. A
	// trapezoidal step that follows one in its own phase starts Newton
	// from the linear extrapolation of the last two accepted states.
	xHist     []float64
	hHist     float64
	histPhase int
	histTrap  bool

	// Cycle cut: a record of each iteration of the current Newton loop,
	// and the entry states (dst, lastStep) of its fresh-factor ones.
	iters  []newtonIter
	states []float64
}

// newtonIter is one iteration's largest node update, and the offset of
// its entry state in tranRun.states (-1 after a stale-factor solve).
type newtonIter struct {
	worst int
	delta float64
	state int
}

func newTranRun(cc *compiled, opts TranOpts, x0 []float64) *tranRun {
	tr := cc.trun
	if tr == nil {
		n := cc.layout.Size
		tr = &tranRun{
			cc:    cc,
			stepA: la.NewMatrix(n, n), stepB: make([]float64, n),
			a: la.NewMatrix(n, n), b: make([]float64, n),
			xNew: make([]float64, n), xHist: make([]float64, n),
			r: make([]float64, n), d: make([]float64, n),
			lu: newKernelLU(cc),
		}
		cc.trun = tr
	}
	if m := opts.MaxNewton; cap(tr.iters) < m {
		tr.iters = make([]newtonIter, 0, m)
		tr.states = make([]float64, 0, m*(cc.layout.Size+1))
	}
	tr.opts = opts
	tr.haveFactor, tr.reuseCount, tr.lastPhase, tr.lastH = false, 0, 0, 0
	tr.histTrap = false
	tr.lu.reset()
	tr.caps = tr.caps[:0]
	for _, ce := range cc.capElems {
		tr.caps = append(tr.caps, capRun{capElem: ce, v: nodeV(x0, ce.p) - nodeV(x0, ce.n)})
	}
	tr.mcaps = tr.mcaps[:0]
	for i := range cc.mosElems {
		m := &cc.mosElems[i]
		volts := [4]float64{nodeV(x0, m.d), nodeV(x0, m.g), nodeV(x0, m.s), nodeV(x0, m.b)}
		var mc mosCaps
		for k := range mc.v {
			mc.v[k] = volts[meyerP[k]] - volts[meyerN[k]]
		}
		tr.mcaps = append(tr.mcaps, mc)
	}
	return tr
}

// companion returns the companion model of capacitance c in the step
// being solved: its conductance geq and the history current ih the step
// carries (the last accepted current iOld when trapezoidal, 0 for BE).
// The branch current at voltage v is geq·(v − vOld) − ih.
func (tr *tranRun) companion(c, iOld float64) (geq, ih float64) {
	if tr.trap {
		return c * tr.gk, iOld
	}
	return c * tr.gk, 0
}

// solveStep runs damped Newton for one step ending at time t with width
// h, writing the converged state into dst (must not alias xFrom). The
// step baseline — phase conductances, gmin shunts, linear capacitor
// companions, sources at t — is assembled once; each Newton iteration
// copies it and stamps only the MOS devices and their Meyer caps. The
// companion memory of every capacitor is not touched.
//
// A trapezoidal step whose predecessor was a trapezoidal step in the
// same phase starts from the predicted state xFrom + (h/hPrev)·(xFrom −
// xPrev); every other step starts from xFrom. The prediction only moves
// the first iterate: the converged state must still pass the same step
// test. A step whose Newton loop fails returns that loop's error, and
// advance halves it.
func (tr *tranRun) solveStep(dst, xFrom []float64, t, h float64, method Integrator) error {
	cc := tr.cc
	l := cc.layout
	phase := ClockPhase(t, tr.opts.ClockPeriod, tr.opts.NonOverlap)
	copy(tr.stepA.Data, cc.phaseBase(phase).Data)
	for i := 0; i < len(l.Nodes); i++ {
		tr.stepA.Add(i, i, gmin)
	}
	for i := range tr.stepB {
		tr.stepB[i] = 0
	}
	tr.trap = method == Trapezoidal
	if tr.trap {
		tr.gk = 2 / h
	} else {
		tr.gk = 1 / h
	}
	for ci := range tr.caps {
		st := &tr.caps[ci]
		geq, ih := tr.companion(st.c, st.i)
		ieq := geq*st.v + ih
		stampConductance(tr.stepA, st.p, st.n, geq)
		addRHS(tr.stepB, st.p, ieq)
		addRHS(tr.stepB, st.n, -ieq)
	}
	stampSources(cc, tr.stepB, t)
	if tr.trap && tr.histTrap && tr.histPhase == phase {
		r := h / tr.hHist
		for i, x := range xFrom {
			dst[i] = x + r*(x-tr.xHist[i])
		}
	} else {
		copy(dst, xFrom)
	}
	if phase != tr.lastPhase || math.Abs(h-tr.lastH) > 1e-9*h {
		// Switch conductances or companion weights changed: any carried
		// factorization is far from the new Jacobian. The width test is
		// tolerant because the fixed-step driver's t−tPrev jitters by an
		// ulp between steps; a same-width stale factor is as good as ever.
		tr.haveFactor = false
	}
	tr.lastPhase, tr.lastH = phase, h
	return tr.newtonLoop(dst, t, !cc.fullNewton)
}

// newtonLoop runs the damped Newton iteration of one step against the
// already-assembled step baseline. With reuse (every production run) the
// Jacobian is factored on the first iteration and then reused (delta
// solves against the stale factor, carried across steps) while the
// damped step norm contracts; it is refreshed when convergence slows or
// after several reuses. Without reuse every iteration refactors: the
// full-Newton oracle.
//
// Everything from a fresh-factor iteration on depends only on its entry
// dst and lastStep, and on kernelLU's pivot path. So when a fresh-factor
// iteration enters an earlier one's state bit for bit and the path has
// not changed in this loop, the loop cycles and cannot converge: it
// returns at once the error of its last iteration, from the cycle's record.
func (tr *tranRun) newtonLoop(dst []float64, t float64, reuse bool) error {
	cc := tr.cc
	l := cc.layout
	worstIdx, worstDelta := -1, 0.0
	lastStep, prevStep := math.Inf(1), math.Inf(1)
	tr.iters, tr.states = tr.iters[:0], tr.states[:0]
	ordered := tr.lu.useOrd
	for it := 0; it < tr.opts.MaxNewton; it++ {
		state := -1
		// Refresh when not reusing, when no factorization is carried,
		// after a bounded number of stale solves, or when the iteration
		// stops contracting (the stale factor has drifted too far).
		if !reuse || !tr.haveFactor || tr.reuseCount >= 50 || lastStep > 0.5*prevStep {
			if k := tr.repeatOf(dst, lastStep); k >= 0 && tr.lu.useOrd == ordered && !cc.noCycleCut {
				last := tr.iters[k+(tr.opts.MaxNewton-1-k)%(it-k)]
				worstIdx, worstDelta = last.worst, last.delta
				break
			}
			state = len(tr.states)
			tr.states = append(append(tr.states, dst...), lastStep)
			copy(tr.a.Data, tr.stepA.Data)
			copy(tr.b, tr.stepB)
			tr.stampMOSTran(tr.a, tr.b, dst)
			if err := tr.lu.factor(tr.a); err != nil {
				return fmt.Errorf("sim: singular matrix at t=%g: %w", t, err)
			}
			tr.haveFactor = true
			tr.reuseCount = 0
			// Fresh factor: the direct solve equals the delta solve and
			// skips the residual mat-vec.
			tr.lu.solveInto(tr.xNew, tr.b)
		} else {
			// Stale factor: only the residual is needed, and it is
			// evaluated directly (residualTran) — no matrix assembly.
			tr.reuseCount++
			tr.lu.reused++
			tr.residualTran(tr.r, dst)
			tr.lu.solveInto(tr.d, tr.r)
			for i := range tr.xNew {
				tr.xNew[i] = dst[i] - tr.d[i]
			}
		}
		sol := tr.xNew
		maxStep := 0.0
		maxIdx := -1
		for i := 0; i < len(l.Nodes); i++ {
			if d := math.Abs(sol[i] - dst[i]); d > maxStep {
				maxStep = d
				maxIdx = i
			}
		}
		worstIdx, worstDelta = maxIdx, maxStep
		tr.iters = append(tr.iters, newtonIter{maxIdx, maxStep, state})
		prevStep, lastStep = lastStep, maxStep
		// Damp large Newton excursions (a hard residue step can throw
		// devices across regions; full steps then oscillate).
		alpha := 1.0
		const vLimit = 0.3
		if maxStep > vLimit {
			alpha = vLimit / maxStep
		}
		for i := range sol {
			dst[i] += alpha * (sol[i] - dst[i])
		}
		if alpha == 1 && maxStep < 1e-6+1e-4*la.NormInf(dst) {
			return nil
		}
	}
	worst := ""
	if worstIdx >= 0 {
		worst = l.Nodes[worstIdx]
	}
	return &ConvergenceError{
		Analysis: "transient", Time: t, Iterations: tr.opts.MaxNewton,
		WorstNode: worst, WorstDelta: worstDelta,
	}
}

// repeatOf returns the earlier fresh-factor iteration of the current
// Newton loop that entered with x and lastStep bit for bit, or -1.
func (tr *tranRun) repeatOf(x []float64, lastStep float64) int {
	for k, rec := range tr.iters {
		if rec.state < 0 {
			continue
		}
		s := tr.states[rec.state : rec.state+len(x)+1]
		same := math.Float64bits(s[len(x)]) == math.Float64bits(lastStep)
		for i := 0; same && i < len(x); i++ {
			same = math.Float64bits(s[i]) == math.Float64bits(x[i])
		}
		if same {
			return k
		}
	}
	return -1
}

// residualTran evaluates the nonlinear step residual f(x) at x into r
// without assembling the Newton system. In A(x)·x − b(x) each MOS
// companion's matrix terms cancel algebraically against its RHS
// contribution, leaving the raw drain current, and each Meyer-cap
// companion reduces to its branch current geq·(v − vOld) − ih: so
// f(x) = stepA·x − stepB + device currents. Stale-factor delta solves
// only need this residual, which is what makes skipping the full stamp
// on reuse iterations legal.
func (tr *tranRun) residualTran(r, x []float64) {
	cc := tr.cc
	cc.symBase.MulVecInto(r, tr.stepA, x)
	for i := range r {
		r[i] -= tr.stepB[i]
	}
	var op device.OP
	for i := range cc.mosElems {
		m := &cc.mosElems[i]
		vd, vg, vs, vb := nodeV(x, m.d), nodeV(x, m.g), nodeV(x, m.s), nodeV(x, m.b)
		m.model.EvalInto(&op, vd, vg, vs, vb)
		addRHS(r, m.d, op.ID)
		addRHS(r, m.s, -op.ID)
		mc := &tr.mcaps[i]
		mc.load(&op)
		nodes, volts := [4]int{m.d, m.g, m.s, m.b}, [4]float64{vd, vg, vs, vb}
		for k, c := range mc.c {
			if c <= 0 {
				continue
			}
			geq, ih := tr.companion(c, mc.i[k])
			ic := geq*(volts[meyerP[k]]-volts[meyerN[k]]-mc.v[k]) - ih
			addRHS(r, nodes[meyerP[k]], ic)
			addRHS(r, nodes[meyerN[k]], -ic)
		}
	}
}

// stampMOSTran adds the MOS companions and their Meyer-cap companions
// at candidate x: each cap's conductance is taken at x, its history
// from the last accepted step.
func (tr *tranRun) stampMOSTran(a *la.Matrix, b []float64, x []float64) {
	cc := tr.cc
	var op device.OP
	for i := range cc.mosElems {
		m := &cc.mosElems[i]
		vd, vg, vs, vb := nodeV(x, m.d), nodeV(x, m.g), nodeV(x, m.s), nodeV(x, m.b)
		m.model.EvalInto(&op, vd, vg, vs, vb)
		stampVCCS(a, m.d, m.s, m.g, m.s, op.GM)
		stampConductance(a, m.d, m.s, op.GDS)
		stampVCCS(a, m.d, m.s, m.b, m.s, op.GMB)
		ieq := op.ID - op.GM*(vg-vs) - op.GDS*(vd-vs) - op.GMB*(vb-vs)
		addRHS(b, m.d, -ieq)
		addRHS(b, m.s, +ieq)
		mc := &tr.mcaps[i]
		mc.load(&op)
		nodes := [4]int{m.d, m.g, m.s, m.b}
		for k, c := range mc.c {
			if c <= 0 {
				continue
			}
			geq, ih := tr.companion(c, mc.i[k])
			ieq := geq*mc.v[k] + ih
			p, n := nodes[meyerP[k]], nodes[meyerN[k]]
			stampConductance(a, p, n, geq)
			addRHS(b, p, ieq)
			addRHS(b, n, -ieq)
		}
	}
}

// commit accepts the step solveStep just solved from xFrom to xNew: it
// records the predictor history (solveStep left the step's phase and
// width in lastPhase and lastH) and advances the companion memory of
// every capacitor. A Meyer cap's new current uses its capacitance at the
// loop's latest iterate and its branch voltage at xNew; a cap that is
// zero there carries no current.
func (tr *tranRun) commit(xFrom, xNew []float64) {
	copy(tr.xHist, xFrom)
	tr.hHist, tr.histPhase, tr.histTrap = tr.lastH, tr.lastPhase, tr.trap
	for ci := range tr.caps {
		st := &tr.caps[ci]
		vNew := nodeV(xNew, st.p) - nodeV(xNew, st.n)
		geq, ih := tr.companion(st.c, st.i)
		st.i = geq*(vNew-st.v) - ih
		st.v = vNew
	}
	cc := tr.cc
	for i := range cc.mosElems {
		m := &cc.mosElems[i]
		mc := &tr.mcaps[i]
		volts := [4]float64{nodeV(xNew, m.d), nodeV(xNew, m.g), nodeV(xNew, m.s), nodeV(xNew, m.b)}
		for k, c := range mc.c {
			vNew := volts[meyerP[k]] - volts[meyerN[k]]
			iNew := 0.0
			if c > 0 {
				geq, ih := tr.companion(c, mc.i[k])
				iNew = geq*(vNew-mc.v[k]) - ih
			}
			mc.v[k], mc.i[k] = vNew, iNew
		}
	}
}

// advance integrates from tPrev to tPrev+h into dst, recursively halving
// the step with backward Euler when Newton cannot converge (sharp source
// edges and region changes are the usual culprits).
func (tr *tranRun) advance(xFrom, dst []float64, tPrev, h float64, method Integrator, depth int) error {
	err := tr.solveStep(dst, xFrom, tPrev+h, h, method)
	if err == nil {
		tr.commit(xFrom, dst)
		return nil
	}
	if depth >= 10 {
		return err
	}
	xMid := make([]float64, len(dst))
	if err := tr.advance(xFrom, xMid, tPrev, h/2, BackwardEuler, depth+1); err != nil {
		return err
	}
	return tr.advance(xMid, dst, tPrev+h/2, h/2, BackwardEuler, depth+1)
}

// Tran runs a fixed-step transient analysis. Each step solves the
// nonlinear network by Newton iteration with capacitor companion models
// (trapezoidal by default). Clocked switches follow the two-phase clock.
func Tran(c *netlist.Circuit, opts TranOpts) (*TranResult, error) {
	cc, err := compile(c)
	if err != nil {
		return nil, err
	}
	return tranCompiled(cc, opts)
}

// normalize validates the transient window and fills the defaults.
func (opts *TranOpts) normalize() error {
	if opts.TStop <= 0 || opts.TStep <= 0 || opts.TStep > opts.TStop {
		return fmt.Errorf("sim: bad transient window step=%g stop=%g", opts.TStep, opts.TStop)
	}
	if opts.MaxNewton == 0 {
		opts.MaxNewton = 80
	}
	return nil
}

// tranCompiled is the compiled-circuit transient solver. The initial
// operating point runs on the same compilation, so a transient analysis
// compiles its netlist exactly once.
func tranCompiled(cc *compiled, opts TranOpts) (*TranResult, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	l := cc.layout

	// Initial state: DC operating point with the t=0 clock phase, or ICs.
	x := make([]float64, l.Size)
	if opts.useICs {
		for node, v := range opts.ics {
			if i := l.idx(node); i >= 0 {
				x[i] = v
			}
		}
	} else {
		dc, err := opCompiled(cc, DCOpts{SwitchPhase: ClockPhase(0, opts.ClockPeriod, opts.NonOverlap)})
		if err != nil {
			return nil, fmt.Errorf("sim: transient initial OP: %w", err)
		}
		x = dc.x
	}
	return tranFromState(cc, x, opts)
}

// tranFromState integrates from the initial state x0 (not modified) with
// already-normalized options.
func tranFromState(cc *compiled, x0 []float64, opts TranOpts) (*TranResult, error) {
	l := cc.layout
	n := l.Size
	steps := int(math.Round(opts.TStop/opts.TStep)) + 1
	// Recorder slots pair each waveform with its MNA row so the per-step
	// record loop never iterates a map; every slice (res.T included) is
	// preallocated to exactly `steps` samples, so appends never grow.
	type recSlot struct {
		name string
		idx  int
		w    []float64
	}
	names := opts.Probes
	if len(names) == 0 {
		names = l.Nodes
	}
	slots := make([]recSlot, 0, len(names))
	for _, name := range names {
		if isGround(name) {
			continue // Waveform synthesizes ground
		}
		i, ok := l.NodeIndex[name]
		if !ok {
			return nil, fmt.Errorf("sim: transient probe %q is not a circuit node", name)
		}
		slots = append(slots, recSlot{name, i, make([]float64, 0, steps)})
	}
	res := &TranResult{T: make([]float64, 0, steps), V: make(map[string][]float64, len(slots))}

	x := append([]float64(nil), x0...)
	run := newTranRun(cc, opts, x)
	defer run.lu.flush()
	record := func(t float64, x []float64) {
		res.T = append(res.T, t)
		for si := range slots {
			slots[si].w = append(slots[si].w, x[slots[si].idx])
		}
	}
	record(0, x)

	xNext := make([]float64, n)
	h := opts.TStep
	tPrev := 0.0
	prevPhase := ClockPhase(0, opts.ClockPeriod, opts.NonOverlap)
	damp := dampSteps
	for k := 1; k < steps; k++ {
		t := float64(k) * h
		// When the window is not an integer multiple of the step, the
		// rounded step count can push the last nominal sample past TStop;
		// clamp it so the recorded window never exceeds the request and
		// the final step simply shortens.
		if t > opts.TStop {
			t = opts.TStop
		}
		hk := t - tPrev
		if hk <= 0 {
			break
		}
		phase := ClockPhase(t, opts.ClockPeriod, opts.NonOverlap)
		// Trapezoidal integration rings forever if started with a wrong
		// capacitor-current state, and on stiff nodes one damping step is
		// not enough: take dampSteps backward-Euler steps from t=0 and
		// across every clock-phase discontinuity, as production
		// simulators do after breakpoints.
		if phase != prevPhase {
			damp = dampSteps
		}
		prevPhase = phase
		method := opts.method
		if damp > 0 {
			method = BackwardEuler
			damp--
		}
		if err := run.advance(x, xNext, tPrev, hk, method, 0); err != nil {
			return nil, err
		}
		x, xNext = xNext, x
		record(t, x)
		tPrev = t
	}
	for _, s := range slots {
		res.V[s.name] = s.w
	}
	return res, nil
}

// sourceValue evaluates an independent source waveform at time t.
func sourceValue(s *netlist.Source, t float64) float64 {
	switch s.Kind {
	case netlist.SrcDC:
		return s.DC
	case netlist.SrcSin:
		if t < s.Sin.Delay {
			return s.Sin.VO
		}
		ph := s.Sin.Phase * math.Pi / 180
		return s.Sin.VO + s.Sin.VA*math.Sin(2*math.Pi*s.Sin.Freq*(t-s.Sin.Delay)+ph)
	case netlist.SrcPulse:
		p := s.Pulse
		if t < p.TD {
			return p.V1
		}
		tm := t - p.TD
		if p.PER > 0 {
			tm = math.Mod(tm, p.PER)
		}
		switch {
		case tm < p.TR:
			return p.V1 + (p.V2-p.V1)*tm/p.TR
		case tm < p.TR+p.PW:
			return p.V2
		case tm < p.TR+p.PW+p.TF:
			return p.V2 + (p.V1-p.V2)*(tm-p.TR-p.PW)/p.TF
		default:
			return p.V1
		}
	case netlist.SrcPWL:
		pts := s.PWL
		if len(pts) == 0 {
			return s.DC
		}
		if t <= pts[0].T {
			return pts[0].V
		}
		for i := 1; i < len(pts); i++ {
			if t <= pts[i].T {
				// Coincident time points encode an instantaneous step: on
				// an exact hit, the last point at that time wins, and a
				// zero-width segment never divides by zero (which would
				// propagate NaN into the solve).
				if t == pts[i].T {
					for i+1 < len(pts) && pts[i+1].T == pts[i].T {
						i++
					}
					return pts[i].V
				}
				dt := pts[i].T - pts[i-1].T
				if dt <= 0 {
					return pts[i].V
				}
				frac := (t - pts[i-1].T) / dt
				return pts[i-1].V + frac*(pts[i].V-pts[i-1].V)
			}
		}
		return pts[len(pts)-1].V
	}
	return s.DC
}
