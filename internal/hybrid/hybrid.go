// Package hybrid implements the paper's block-level evaluation flow (§3):
// every synthesis candidate is scored by
//
//  1. a DC simulation of the closed-loop MDAC to bias the amplifier and
//     extract small-signal parameters (simulation, trustworthy bias),
//  2. a numerical transfer function — the DPI/SFG symbolic loop gain with
//     the extracted values bound — for gain, crossover and phase margin
//     (equation-fast, simulation-accurate for linear behaviour), and
//  3. a transient simulation of the worst-case residue step for the
//     large-swing settling behaviour that linear models cannot capture.
//
// Two alternative evaluators bracket the hybrid: EquationOnly uses the
// closed-form textbook expressions end to end (the style of [Hershenson,
// ICCAD'02]), and SimOnly replaces the symbolic transfer function with a
// swept AC analysis. Benchmarks over the three modes reproduce the paper's
// speed/accuracy argument.
package hybrid

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"pipesyn/internal/device"
	"pipesyn/internal/dpi"
	"pipesyn/internal/expr"
	"pipesyn/internal/mdac"
	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
)

// Mode selects the evaluation strategy.
type Mode int

const (
	Hybrid Mode = iota
	EquationOnly
	SimOnly
)

func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case EquationOnly:
		return "equation"
	case SimOnly:
		return "simulation"
	}
	return "?"
}

// Metrics is the outcome of evaluating one MDAC sizing candidate.
type Metrics struct {
	Mode Mode

	Power float64 // static supply power, W

	LoopGain0   float64 // T(0), loop gain at DC
	AmpGain     float64 // A0 = T(0)/β
	CrossoverHz float64 // loop unity-gain frequency
	PhaseMargin float64 // degrees
	StaticError float64 // closed-loop static gain error ≈ 1/T(0)

	SettleTime float64 // measured settling time from the step, s
	Settled    bool    // reached the tolerance band within the window

	SwingLo, SwingHi float64 // output range with all devices saturated
	AllSaturated     bool    // every amplifier FET in saturation at OP

	// Per-leg wall-clock costs, for the §3 speed/accuracy comparison:
	// the transfer-function leg is where hybrid and full simulation
	// diverge (symbolic program sweep vs per-frequency matrix solves).
	DCTime, TFTime, TranTime time.Duration
}

// StageEvaluator evaluates sizing candidates for one fixed stage spec.
// It keeps the simulation kernel of the closed-loop hold circuit warm
// across candidates, because the MDAC topology never changes during a
// synthesis run: the kernel is compiled once and rebound to each
// candidate's values (see sim.Kernel for why a rebound result is
// bit-identical to a cold compile). The compiled symbolic loop transfer
// function is built once per topology for the whole process and shared
// by every evaluator (see loopTF): the expensive DPI/SFG + Mason step
// happens once, and each candidate only writes its extracted
// small-signal values into the program's slots.
//
// A StageEvaluator is not safe for concurrent use: its warm kernel and
// scratch buffers belong to one goroutine. Use one per synthesis
// restart, as synth does.
type StageEvaluator struct {
	Spec    stagespec.MDACSpec
	Process *pdk.Process
	Mode    Mode

	tf   *loopTF      // the topology's shared loop transfer function
	slot []complex128 // tf's variable values for the current candidate
	buf  expr.EvalBuf
	kern *sim.Kernel // warm hold-circuit kernel, compiled on first use
}

// NewStageEvaluator prepares an evaluator for the given block spec.
func NewStageEvaluator(spec stagespec.MDACSpec, proc *pdk.Process, mode Mode) *StageEvaluator {
	return &StageEvaluator{Spec: spec, Process: proc, Mode: mode}
}

// Evaluate scores one sizing candidate. The result does not depend on
// which candidates the evaluator scored before: the warm kernel is
// rebound per candidate, and a candidate of another amplifier topology
// recompiles the kernel and binds that topology's transfer function.
//
// One evaluation is the engine's cancellation granule: ctx is checked on
// entry and between the DC, transfer-function, and transient legs, so a
// cancelled synthesis returns within the leg already in flight.
func (se *StageEvaluator) Evaluate(ctx context.Context, sizing opamp.Amp) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	st := mdac.Stage{Spec: se.Spec, Sizing: sizing, Process: se.Process}
	switch se.Mode {
	case EquationOnly:
		return evaluateEquations(st)
	case Hybrid, SimOnly:
		return se.evaluateWithSim(ctx, st)
	}
	return Metrics{}, fmt.Errorf("hybrid: unknown mode %d", se.Mode)
}

// loopTF is one amplifier topology's compiled loop transfer function,
// immutable and shared by every evaluator in the process. Each variable
// but s is resolved once to its source: a field of a hold-circuit element
// (an element value, or a MOSFET's operating point), or cin.
type loopTF struct {
	prog *expr.Program
	sIdx int
	srcs []tfSource // in element order, so a MOSFET's fields are adjacent
}

// tfSource binds program slot slot to field of hold-circuit element
// elem, or to cin when elem is -1.
type tfSource struct {
	slot, elem int
	field      dpi.Field
}

// loopTFs holds one loopTF per loop-netlist structure (element names,
// types and nodes), filled on first use; an entry depends on its key only.
var loopTFs = struct {
	sync.Mutex
	m map[string]*loopTF
}{m: map[string]*loopTF{}}

// loopTFFor returns the shared transfer function of st's topology,
// compiling it on the process's first request. mdac builds the loop and
// hold netlists around the same amplifier, so the loop structure fixes
// the hold elements the sources point at. The cin placeholder only makes
// the element exist; fill binds its value per candidate.
func loopTFFor(st mdac.Stage, hold *netlist.Circuit) (*loopTF, error) {
	loop, err := st.LoopCircuit(1e-16)
	if err != nil {
		return nil, err
	}
	var key strings.Builder
	for _, e := range loop.Elements {
		fmt.Fprintf(&key, "%s %d %s;", e.Name, e.Type, strings.Join(e.Nodes, " "))
	}
	loopTFs.Lock()
	defer loopTFs.Unlock()
	if tf := loopTFs.m[key.String()]; tf != nil {
		return tf, nil
	}
	tf, err := compileLoopTF(loop, hold)
	if err != nil {
		return nil, err
	}
	loopTFs.m[key.String()] = tf
	return tf, nil
}

// compileLoopTF runs DPI/SFG, Mason and Compile on the loop netlist and
// resolves every variable to its source in hold.
func compileLoopTF(loop, hold *netlist.Circuit) (*loopTF, error) {
	// The diode-connected mirror gate is a low-impedance bias node;
	// grounding it for small-signal purposes is the designer's standard
	// simplification and collapses the Mason loop set (and with it the
	// compiled program) by an order of magnitude.
	an, err := dpi.Build(loop, dpi.Options{
		Input: mdac.NodeDrv, IncludeCaps: true,
		ACGround: []string{mdac.AmpPrefix + "bn"},
	})
	if err != nil {
		return nil, fmt.Errorf("hybrid: DPI build: %w", err)
	}
	h, err := an.TransferFunction(mdac.NodeFB)
	if err != nil {
		return nil, fmt.Errorf("hybrid: Mason: %w", err)
	}
	prog, vars, err := h.Compile()
	if err != nil {
		return nil, err
	}
	tf := &loopTF{prog: prog, sIdx: prog.VarIndex("s")}
	if tf.sIdx < 0 {
		return nil, fmt.Errorf("hybrid: loop transfer function lost its frequency dependence")
	}
	holdIdx := map[string]int{mdac.ElemCin: -1}
	for i, e := range hold.Elements {
		holdIdx[e.Name] = i
	}
	for _, e := range loop.Elements {
		i, inHold := holdIdx[e.Name]
		for _, f := range dpi.FieldsOf(e.Type) {
			if slot := prog.VarIndex(f.Var(e.Name)); slot >= 0 && inHold {
				tf.srcs = append(tf.srcs, tfSource{slot: slot, elem: i, field: f})
			}
		}
	}
	if len(tf.srcs) != len(vars)-1 {
		return nil, fmt.Errorf("hybrid: %d of the loop's %d variables have no source in the hold circuit", len(vars)-1-len(tf.srcs), len(vars)-1)
	}
	return tf, nil
}

// fill writes one candidate's values into slot straight from its hold
// circuit, the operating point solved for it (one op.MOS read per
// MOSFET) and cin, through the dpi.Field definitions dpi.Env uses. A
// cin ≤ 0 drops the element from mdac.LoopCircuit, so such a candidate
// fails as it does on that netlist.
func (tf *loopTF) fill(slot []complex128, hold *netlist.Circuit, op *sim.DCResult, cin float64) error {
	if !(cin > 0) {
		return fmt.Errorf("hybrid: environment missing %q", dpi.Cap.Var(mdac.ElemCin))
	}
	var mop device.OP
	read := -1
	for _, src := range tf.srcs {
		if src.elem < 0 {
			slot[src.slot] = complex(cin, 0)
			continue
		}
		e := hold.Elements[src.elem]
		if e.Type == netlist.MOS && src.elem != read {
			mop, read = op.MOS[e.Name], src.elem
		}
		v, err := src.field.Value(hold, e, &mop, dpi.Options{})
		if err != nil {
			return err
		}
		slot[src.slot] = complex(v, 0)
	}
	return nil
}

// evaluateEquations is the pure closed-form path: no simulator calls.
func evaluateEquations(st mdac.Stage) (Metrics, error) {
	sp := st.Spec
	eq := st.Sizing.Analyze(st.Process, sp.CLoad+sp.CFeed)
	beta := sp.Beta
	m := Metrics{Mode: EquationOnly}
	m.Power = eq.Power
	m.AmpGain = eq.A0
	m.LoopGain0 = eq.A0 * beta
	m.CrossoverHz = eq.GBW * beta
	m.PhaseMargin = 90 - math.Atan(m.CrossoverHz/eq.P2)*180/math.Pi
	if m.LoopGain0 > 0 {
		m.StaticError = 1 / m.LoopGain0
	} else {
		m.StaticError = 1
	}
	// Settling: slew phase + N·τ linear phase.
	step := st.IdealOutputStep()
	tSlew := 0.0
	if eq.SR > 0 {
		tSlew = step / eq.SR * 0.5 // half the step is slew-limited, typically
	}
	tau := 1 / (2 * math.Pi * m.CrossoverHz)
	ntau := math.Log(1 / sp.SettleTol)
	m.SettleTime = tSlew + ntau*tau
	m.Settled = m.SettleTime <= sp.TSettle+sp.TSlew
	m.SwingLo, m.SwingHi = eq.SwingLo, eq.SwingHi
	m.AllSaturated = true // equations assume intended regions
	return m, nil
}

// evaluateWithSim shares the DC + transient legs between Hybrid and
// SimOnly; they differ in how the loop transfer function is obtained.
// Both simulation legs run on the evaluator's warm hold-circuit kernel,
// and the transient starts from the DC leg's operating point instead of
// solving it again.
func (se *StageEvaluator) evaluateWithSim(ctx context.Context, st mdac.Stage) (Metrics, error) {
	mode := se.Mode
	m := Metrics{Mode: mode}
	sp := st.Spec
	hold, err := st.HoldCircuit()
	if err != nil {
		return m, err
	}

	tDC := time.Now()
	if err := se.bindHold(hold); err != nil {
		return m, fmt.Errorf("hybrid: closed-loop OP: %w", err)
	}
	op, err := se.kern.OP(sim.DCOpts{})
	if err != nil {
		return m, fmt.Errorf("hybrid: closed-loop OP: %w", err)
	}
	m.DCTime = time.Since(tDC)
	m.Power = op.SupplyPower(hold)

	// Operating-region audit over the amplifier devices. The mirror
	// diodes are saturated by construction; all of them must be.
	m.AllSaturated = true
	var cin float64
	for name, mop := range op.MOS {
		if mop.Region != device.Saturation {
			m.AllSaturated = false
		}
		if name == mdac.AmpPrefix+"m1" {
			cin = mop.CGS
		}
	}
	m.SwingLo, m.SwingHi = st.Sizing.SwingWindow(op.MOS, mdac.AmpPrefix, st.Process.VDD)

	// Loop transfer function.
	if err := ctx.Err(); err != nil {
		return m, err
	}
	beta := sp.CFeed / (sp.CFeed + sp.CSample + cin)
	tTF := time.Now()
	switch mode {
	case Hybrid:
		if se.tf == nil {
			if se.tf, err = loopTFFor(st, hold); err != nil {
				return m, err
			}
			se.slot = make([]complex128, len(se.tf.srcs)+1)
		}
		// Evaluate the shared symbolic transfer function pointwise with
		// complex arithmetic. (Converting the un-cancelled degree-~50
		// Mason rational function to polynomial coefficients loses double
		// precision; direct evaluation of the compiled program does not.)
		if err := se.tf.fill(se.slot, hold, op, cin); err != nil {
			return m, fmt.Errorf("hybrid: numeric TF: %w", err)
		}
		met, err := se.loopMetrics()
		if err != nil {
			return m, fmt.Errorf("hybrid: numeric TF: %w", err)
		}
		m.LoopGain0 = met.gain0
		m.CrossoverHz = met.crossover
		m.PhaseMargin = met.pm
	case SimOnly:
		loop, err := st.LoopCircuit(cin)
		if err != nil {
			return m, err
		}
		ac, err := sim.AC(loop, op, sim.ACOpts{FStart: 1e3, FStop: 100e9, PointsPerDecade: 40})
		if err != nil {
			return m, fmt.Errorf("hybrid: AC sweep: %w", err)
		}
		h, err := ac.Transfer(mdac.NodeFB)
		if err != nil {
			return m, err
		}
		var fold loopFold
		for i, f := range ac.Freqs {
			if fold.add(f, -h[i]) { // loop gain T = −V(fb)
				break
			}
		}
		m.LoopGain0 = fold.met.gain0
		m.CrossoverHz = fold.met.crossover
		m.PhaseMargin = fold.met.pm
	}
	m.TFTime = time.Since(tTF)
	m.AmpGain = m.LoopGain0 / beta
	if m.LoopGain0 > 0 {
		m.StaticError = 1 / m.LoopGain0
	} else {
		m.StaticError = 1
	}

	// Transient settling of the worst-case residue step, from the DC
	// leg's operating point (the hold circuit is unclocked, so it is the
	// t=0 operating point sim.Tran would solve).
	if err := ctx.Err(); err != nil {
		return m, err
	}
	window := sp.TSlew + sp.TSettle
	tStop, tStep := st.SettleSpan()
	tTran := time.Now()
	tr, err := se.kern.TranFrom(op, sim.TranOpts{TStop: tStop, TStep: tStep, Probes: outProbe})
	if err != nil {
		return m, fmt.Errorf("hybrid: transient: %w", err)
	}
	m.TranTime = time.Since(tTran)
	settle, ok, err := SettleTime(tr, mdac.NodeOut, mdac.StepDelay, sp.SettleTol*st.IdealOutputStep())
	if err != nil {
		return m, err
	}
	m.SettleTime = settle
	m.Settled = ok && settle <= window
	return m, nil
}

// outProbe is the one node the settling check reads.
var outProbe = []string{mdac.NodeOut}

// bindHold points the warm kernel at hold: compiled on the first
// evaluation, rebound after that. A hold circuit that no longer matches
// the compiled structure (a topology change) gets a fresh compile, and
// the loop transfer function bound for the old topology is dropped with
// the old kernel.
func (se *StageEvaluator) bindHold(hold *netlist.Circuit) error {
	if se.kern != nil && se.kern.Bind(hold) == nil {
		return nil
	}
	k, err := sim.NewKernel(hold)
	if err != nil {
		return err
	}
	if se.kern != nil {
		se.tf = nil
	}
	se.kern = k
	return nil
}

type loopMet struct {
	gain0, crossover, pm float64
}

// loopMetrics extracts the loop-gain metrics from the bound program. A
// coarse 8-points-per-decade pass gives the DC gain and brackets the
// first unity crossing; inside that bracket a bracketed secant search
// (Illinois) on ln|T| over log f finds the crossover, and the phase
// margin is read at the root, unwrapped against the bracket's left
// sample.
func (se *StageEvaluator) loopMetrics() (loopMet, error) {
	fold, err := se.sweepProgram(1e3, 100e9, 8)
	if err != nil || !(fold.met.crossover > 0) {
		return fold.met, err
	}
	met := fold.met
	a, b := math.Log10(fold.lo.f), math.Log10(fold.prev.f)
	ga, gb := math.Log(fold.lo.mag), math.Log(fold.prev.mag)
	var u float64
	var v complex128
	kept := 0 // the endpoint the last iteration kept: -1 a, +1 b
	for it := 0; it < 60; it++ {
		u = b - gb*(b-a)/(gb-ga)
		if v, err = se.loopGain(math.Pow(10, u)); err != nil {
			return loopMet{}, err
		}
		g := math.Log(cmplxAbs(v))
		if math.Abs(g) <= 1e-12 || u == a || u == b {
			break
		}
		// Illinois: an endpoint kept twice in a row has its value
		// halved, so the secant stops creeping up on one side.
		if g > 0 {
			if a, ga = u, g; kept == 1 {
				gb /= 2
			}
			kept = 1
		} else {
			if b, gb = u, g; kept == -1 {
				ga /= 2
			}
			kept = -1
		}
	}
	met.crossover = math.Pow(10, u)
	met.pm = phaseMargin(unwrap(phaseDeg(v), fold.lo.phase))
	return met, nil
}

// loopGain evaluates the bound program's loop gain T = −V(fb)/V(drive)
// at frequency f — the "numerical transfer function" leg of the hybrid
// evaluator.
func (se *StageEvaluator) loopGain(f float64) (complex128, error) {
	se.slot[se.tf.sIdx] = complex(0, 2*math.Pi*f)
	v, err := se.tf.prog.EvalCInto(&se.buf, se.slot)
	return -v, err
}

// sweepProgram folds the bound program's loop gain over a log-frequency
// grid and stops at the first unity crossing, past which the fold reads
// nothing.
func (se *StageEvaluator) sweepProgram(fLo, fHi float64, ppd int) (loopFold, error) {
	decades := math.Log10(fHi / fLo)
	n := int(decades*float64(ppd)) + 1
	if n < 2 {
		n = 2
	}
	var fold loopFold
	for i := 0; i < n; i++ {
		f := fLo * math.Pow(10, decades*float64(i)/float64(n-1))
		v, err := se.loopGain(f)
		if err != nil {
			return loopFold{}, err
		}
		if fold.add(f, v) {
			break
		}
	}
	return fold, nil
}

// loopSample is one loop-gain sample: frequency, magnitude, and phase in
// degrees, unwrapped against the samples before it.
type loopSample struct{ f, mag, phase float64 }

// loopFold extracts the DC loop gain, the first unity crossover and the
// phase margin there from loop-gain samples added in frequency order,
// unwrapping the phase from sample to sample. The crossover and phase
// margin interpolate linearly between the samples around the crossing:
// lo, the last one at or above unity, and prev, the first one below.
type loopFold struct {
	met      loopMet
	started  bool
	prev, lo loopSample
}

// add folds in the sample v at frequency f. It reports true once the
// first crossing is found: no later sample changes the result.
func (fd *loopFold) add(f float64, v complex128) bool {
	cur := loopSample{f, cmplxAbs(v), phaseDeg(v)}
	if !fd.started {
		fd.started, fd.met.gain0 = true, cur.mag
	} else {
		cur.phase = unwrap(cur.phase, fd.prev.phase)
		if fd.met.crossover == 0 && fd.prev.mag >= 1 && cur.mag < 1 {
			frac := (fd.prev.mag - 1) / (fd.prev.mag - cur.mag)
			lf := math.Log10(fd.prev.f) + frac*(math.Log10(f)-math.Log10(fd.prev.f))
			fd.met.crossover = math.Pow(10, lf)
			fd.met.pm = phaseMargin(fd.prev.phase + frac*(cur.phase-fd.prev.phase))
			fd.lo = fd.prev
		}
	}
	fd.prev = cur
	return fd.met.crossover != 0
}

// phaseDeg is v's principal phase in degrees.
func phaseDeg(v complex128) float64 { return math.Atan2(imag(v), real(v)) * 180 / math.Pi }

// unwrap shifts phase by whole turns to within 180° of ref.
func unwrap(phase, ref float64) float64 {
	for phase-ref > 180 {
		phase -= 360
	}
	for phase-ref < -180 {
		phase += 360
	}
	return phase
}

// phaseMargin is 180° plus the loop phase at the crossover, folded into
// [−360°, 360°].
func phaseMargin(phase float64) float64 {
	pm := 180 + phase
	for pm > 360 {
		pm -= 360
	}
	for pm < -360 {
		pm += 360
	}
	return pm
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

// SettleTime measures when the waveform last enters the ±band around its
// own final value, returning the elapsed time since t0. The entry is
// interpolated between the last sample outside the band and the next
// one, where the deviation crosses the band edge it came from, so the
// result does not snap to the sampling grid. ok is false when the
// waveform never stays inside the band.
func SettleTime(tr *sim.TranResult, node string, t0, band float64) (float64, bool, error) {
	w, err := tr.Waveform(node)
	if err != nil {
		return 0, false, err
	}
	if len(w) < 2 {
		return 0, false, fmt.Errorf("hybrid: waveform too short")
	}
	final := w[len(w)-1]
	lastOutside := -1
	for i, v := range w {
		if tr.T[i] < t0 {
			continue
		}
		if math.Abs(v-final) > band {
			lastOutside = i
		}
	}
	if lastOutside == -1 {
		return 0, true, nil // never left the band after the step
	}
	// Require a meaningful dwell inside the band at the end of the window;
	// a waveform that only "settles" because the final sample matches
	// itself has not settled.
	tEnd := tr.T[len(tr.T)-1]
	dwell := tEnd - tr.T[lastOutside]
	if lastOutside >= len(w)-2 || dwell < 0.02*(tEnd-t0) {
		return tEnd - t0, false, nil
	}
	// The sample after lastOutside is inside the band, so the deviation
	// crosses the edge on lastOutside's side between the two.
	dOut, dIn := w[lastOutside]-final, w[lastOutside+1]-final
	edge := math.Copysign(band, dOut)
	frac := (dOut - edge) / (dOut - dIn)
	tOut, tIn := tr.T[lastOutside], tr.T[lastOutside+1]
	return tOut + frac*(tIn-tOut) - t0, true, nil
}

// CheckSpec converts raw metrics into a pass/fail audit against the block
// spec, with a scalar violation measure for penalty-based optimization
// (0 = feasible; larger = worse).
type SpecReport struct {
	Violations float64
	Failures   []string
}

// Check audits metrics against the stage spec. PMMin is the phase-margin
// floor (60° is the customary settling-friendly target).
func Check(sp Specs, m Metrics) SpecReport {
	var r SpecReport
	add := func(short float64, format string, args ...interface{}) {
		if short > 0 {
			r.Violations += short
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
	add(rel(sp.GainMin, m.AmpGain), "gain %.0f < required %.0f", m.AmpGain, sp.GainMin)
	add(rel(sp.CrossoverMin, m.CrossoverHz), "crossover %.3g < required %.3g", m.CrossoverHz, sp.CrossoverMin)
	add(rel(sp.PMMin, m.PhaseMargin), "PM %.1f° < required %.1f°", m.PhaseMargin, sp.PMMin)
	add(rel(m.StaticError, sp.StaticErrMax)*0.5, "static error %.2g > budget %.2g", m.StaticError, sp.StaticErrMax)
	if !m.Settled {
		r.Violations += 1
		r.Failures = append(r.Failures, "did not settle in window")
	}
	add(rel(m.SettleTime, sp.SettleTimeMax), "settle %.3g > window %.3g", m.SettleTime, sp.SettleTimeMax)
	if m.SwingLo > sp.SwingLoMax {
		r.Violations += (m.SwingLo - sp.SwingLoMax)
		r.Failures = append(r.Failures, fmt.Sprintf("swing floor %.2f above %.2f", m.SwingLo, sp.SwingLoMax))
	}
	if m.SwingHi < sp.SwingHiMin {
		r.Violations += (sp.SwingHiMin - m.SwingHi)
		r.Failures = append(r.Failures, fmt.Sprintf("swing ceiling %.2f below %.2f", m.SwingHi, sp.SwingHiMin))
	}
	if !m.AllSaturated {
		r.Violations += 2
		r.Failures = append(r.Failures, "device out of saturation")
	}
	return r
}

// rel returns the normalized shortfall of got versus a want-at-least
// target (0 when satisfied).
func rel(want, got float64) float64 {
	if want <= 0 || got >= want {
		return 0
	}
	return (want - got) / want
}

// Specs is the pass/fail threshold set derived from an MDAC spec.
type Specs struct {
	GainMin       float64
	CrossoverMin  float64 // β·GBW requirement
	PMMin         float64
	StaticErrMax  float64
	SettleTimeMax float64
	SwingLoMax    float64
	SwingHiMin    float64
}

// SpecsFor derives the audit thresholds from a stage.
func SpecsFor(st mdac.Stage) Specs {
	sp := st.Spec
	return Specs{
		GainMin:       sp.GainMin,
		CrossoverMin:  sp.GBWMin * sp.Beta,
		PMMin:         60,
		StaticErrMax:  sp.SettleTol / 2,
		SettleTimeMax: sp.TSettle + sp.TSlew,
		SwingLoMax:    mdac.VCM - sp.SwingMin,
		SwingHiMin:    mdac.VCM + sp.SwingMin,
	}
}
