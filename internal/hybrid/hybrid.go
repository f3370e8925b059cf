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
// It keeps two per-topology artifacts warm across candidates, because
// the MDAC topology never changes during a synthesis run: the compiled
// symbolic loop transfer function (the expensive DPI/SFG + Mason step
// happens once and every candidate only re-binds the extracted
// small-signal values), and the simulation kernel of the closed-loop
// hold circuit (compiled once and rebound to each candidate's values;
// see sim.Kernel for why a rebound result is bit-identical to a cold
// compile).
//
// A StageEvaluator is not safe for concurrent use: its warm kernel and
// scratch buffers belong to one goroutine. Use one per synthesis
// restart, as synth does.
type StageEvaluator struct {
	Spec    stagespec.MDACSpec
	Process *pdk.Process
	Mode    Mode

	prog *expr.Program
	vars []string
	sIdx int
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
// recompiles both cached artifacts.
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

// compileLoopTF builds and caches the symbolic loop transfer function
// from the candidate's topology. The cin placeholder value is irrelevant:
// only the element's existence shapes the topology, and Env re-binds its
// value on every candidate.
func (se *StageEvaluator) compileLoopTF(amp opamp.Amp) error {
	if se.prog != nil {
		return nil
	}
	st := mdac.Stage{Spec: se.Spec, Sizing: amp, Process: se.Process}
	loop, err := st.LoopCircuit(1e-16)
	if err != nil {
		return err
	}
	// The diode-connected mirror gate is a low-impedance bias node;
	// grounding it for small-signal purposes is the designer's standard
	// simplification and collapses the Mason loop set (and with it the
	// compiled program) by an order of magnitude.
	an, err := dpi.Build(loop, dpi.Options{
		Input: mdac.NodeDrv, IncludeCaps: true,
		ACGround: []string{mdac.AmpPrefix + "bn"},
	})
	if err != nil {
		return fmt.Errorf("hybrid: DPI build: %w", err)
	}
	tf, err := an.TransferFunction(mdac.NodeFB)
	if err != nil {
		return fmt.Errorf("hybrid: Mason: %w", err)
	}
	prog, vars, err := tf.Compile()
	if err != nil {
		return err
	}
	se.prog, se.vars = prog, vars
	se.sIdx = prog.VarIndex("s")
	if se.sIdx < 0 {
		return fmt.Errorf("hybrid: loop transfer function lost its frequency dependence")
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
	loop, err := st.LoopCircuit(cin)
	if err != nil {
		return m, err
	}
	beta := sp.CFeed / (sp.CFeed + sp.CSample + cin)
	tTF := time.Now()
	switch mode {
	case Hybrid:
		if err := se.compileLoopTF(st.Sizing); err != nil {
			return m, err
		}
		env, err := dpi.Env(loop, op, dpi.Options{})
		if err != nil {
			return m, err
		}
		// Evaluate the cached symbolic transfer function pointwise with
		// complex arithmetic. (Converting the un-cancelled degree-~50
		// Mason rational function to polynomial coefficients loses double
		// precision; direct evaluation of the compiled program does not.)
		met, err := se.loopMetrics(env)
		if err != nil {
			return m, fmt.Errorf("hybrid: numeric TF: %w", err)
		}
		m.LoopGain0 = met.gain0
		m.CrossoverHz = met.crossover
		m.PhaseMargin = met.pm
	case SimOnly:
		ac, err := sim.AC(loop, op, sim.ACOpts{FStart: 1e3, FStop: 100e9, PointsPerDecade: 40})
		if err != nil {
			return m, fmt.Errorf("hybrid: AC sweep: %w", err)
		}
		h, err := ac.Transfer(mdac.NodeFB)
		if err != nil {
			return m, err
		}
		vals := make([]complex128, len(h))
		for i := range h {
			vals[i] = -h[i] // loop gain T = −V(fb)
		}
		met := loopMetricsFrom(ac.Freqs, vals)
		m.LoopGain0 = met.gain0
		m.CrossoverHz = met.crossover
		m.PhaseMargin = met.pm
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
// the loop transfer function cached for the old topology is dropped
// with the old kernel.
func (se *StageEvaluator) bindHold(hold *netlist.Circuit) error {
	if se.kern != nil && se.kern.Bind(hold) == nil {
		return nil
	}
	k, err := sim.NewKernel(hold)
	if err != nil {
		return err
	}
	if se.kern != nil {
		se.prog = nil
	}
	se.kern = k
	return nil
}

type loopMet struct {
	gain0, crossover, pm float64
}

// loopMetrics extracts the loop-gain metrics from the cached program with
// an adaptive two-pass sweep: a coarse pass brackets the unity crossing,
// a fine pass around it pins down the crossover and phase margin.
func (se *StageEvaluator) loopMetrics(env map[string]float64) (loopMet, error) {
	coarseF, coarseV, err := se.sweepProgram(env, 1e3, 100e9, 8)
	if err != nil {
		return loopMet{}, err
	}
	negate(coarseV) // loop gain T = −V(fb)/V(drive)
	met := loopMetricsFrom(coarseF, coarseV)
	if met.crossover > 0 {
		lo := met.crossover / 3
		hi := met.crossover * 3
		fineF, fineV, err := se.sweepProgram(env, lo, hi, 40)
		if err != nil {
			return loopMet{}, err
		}
		negate(fineV)
		fine := loopMetricsFrom(fineF, fineV)
		if fine.crossover > 0 {
			met.crossover = fine.crossover
			met.pm = fine.pm
		}
	}
	return met, nil
}

func negate(v []complex128) {
	for i := range v {
		v[i] = -v[i]
	}
}

// sweepProgram evaluates the cached transfer-function program over a
// log-frequency grid — the "numerical transfer function" leg of the
// hybrid evaluator.
func (se *StageEvaluator) sweepProgram(env map[string]float64, fLo, fHi float64, ppd int) ([]float64, []complex128, error) {
	slot := make([]complex128, len(se.vars))
	for i, name := range se.vars {
		if i == se.sIdx {
			continue
		}
		v, ok := env[name]
		if !ok {
			return nil, nil, fmt.Errorf("hybrid: environment missing %q", name)
		}
		slot[i] = complex(v, 0)
	}
	decades := math.Log10(fHi / fLo)
	n := int(decades*float64(ppd)) + 1
	if n < 2 {
		n = 2
	}
	freqs := make([]float64, n)
	vals := make([]complex128, n)
	for i := 0; i < n; i++ {
		f := fLo * math.Pow(10, decades*float64(i)/float64(n-1))
		freqs[i] = f
		slot[se.sIdx] = complex(0, 2*math.Pi*f)
		v, err := se.prog.EvalCInto(&se.buf, slot)
		if err != nil {
			return nil, nil, err
		}
		vals[i] = v
	}
	return freqs, vals, nil
}

// loopMetricsFrom extracts the DC loop gain, unity crossover and phase
// margin from sampled loop-gain data (phase unwrapped across the sweep).
func loopMetricsFrom(freqs []float64, vals []complex128) loopMet {
	var met loopMet
	if len(vals) == 0 {
		return met
	}
	met.gain0 = cmplxAbs(vals[0])
	prevMag := cmplxAbs(vals[0])
	prevPhase := math.Atan2(imag(vals[0]), real(vals[0])) * 180 / math.Pi
	for i := 1; i < len(vals); i++ {
		mag := cmplxAbs(vals[i])
		phase := math.Atan2(imag(vals[i]), real(vals[i])) * 180 / math.Pi
		for phase-prevPhase > 180 {
			phase -= 360
		}
		for phase-prevPhase < -180 {
			phase += 360
		}
		if met.crossover == 0 && prevMag >= 1 && mag < 1 {
			frac := (prevMag - 1) / (prevMag - mag)
			lf := math.Log10(freqs[i-1]) + frac*(math.Log10(freqs[i])-math.Log10(freqs[i-1]))
			met.crossover = math.Pow(10, lf)
			phAt := prevPhase + frac*(phase-prevPhase)
			pm := 180 + phAt
			for pm > 360 {
				pm -= 360
			}
			for pm < -360 {
				pm += 360
			}
			met.pm = pm
		}
		prevMag, prevPhase = mag, phase
	}
	return met
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
