// kernel.go is the structure-reusing numerical kernel under the DC, AC,
// transient, and noise analyses. A compiled circuit carries element views
// resolved to MNA indices (no string or map lookups on the hot path) and
// a precomputed constant stamp: the G-matrix contributions of resistors,
// controlled sources, and voltage-branch incidence, extended per clock
// phase with the switch conductances. Each Newton iteration then starts
// from a copy of the baseline and stamps only the nonlinear and
// time-varying devices, with all scratch buffers (matrices, vectors, LU
// workspaces) owned by the compiled circuit and reused across iterations.
package sim

import (
	"pipesyn/internal/device"
	"pipesyn/internal/la"
	"pipesyn/internal/netlist"
)

// mosElem is a MOS transistor with its terminals resolved to MNA rows
// and its compiled device model.
type mosElem struct {
	name       string
	d, g, s, b int
	model      device.MOSModel
}

// capElem is a fixed capacitor with resolved terminals.
type capElem struct {
	p, n int
	c    float64
}

// swElem is a clocked (or static) switch with resolved terminals.
type swElem struct {
	p, n int
	par  device.SwitchParams
}

// srcElem is an independent source: br is the branch row for voltage
// sources and -1 for current sources.
type srcElem struct {
	src  *netlist.Source
	p, n int
	br   int
}

// bindValues (re)builds every part of the compiled kernel that depends
// on the circuit's values rather than its structure: the element views
// (indices plus device values, with mos the compiled MOS models in
// element order), the constant stamp, and the cached per-phase stamps.
// compile and Kernel.Bind both come through here, reusing the existing
// storage on a rebind; one assembly order for both is what keeps a
// rebound kernel bit-identical to a fresh compile of the same circuit.
func (cc *compiled) bindValues(mos []device.MOSModel) {
	l := cc.layout
	if cc.constG == nil {
		cc.constG = la.NewMatrix(l.Size, l.Size)
	} else {
		cc.constG.Zero()
	}
	cc.mosElems, cc.capElems = cc.mosElems[:0], cc.capElems[:0]
	cc.swElems, cc.srcElems = cc.swElems[:0], cc.srcElems[:0]
	for _, e := range cc.circuit.Elements {
		switch e.Type {
		case netlist.Resistor:
			stampConductance(cc.constG, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), 1/e.Value)
		case netlist.Capacitor:
			cc.capElems = append(cc.capElems, capElem{l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), e.Value})
		case netlist.Switch:
			cc.swElems = append(cc.swElems, swElem{l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), cc.switches[e.Name]})
		case netlist.ISource:
			cc.srcElems = append(cc.srcElems, srcElem{e.Src, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), -1})
		case netlist.VSource:
			br := l.BranchIndex[e.Name]
			stampVoltageBranch(cc.constG, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), br)
			cc.srcElems = append(cc.srcElems, srcElem{e.Src, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), br})
		case netlist.VCVS:
			br := l.BranchIndex[e.Name]
			op, on := l.idx(e.Nodes[0]), l.idx(e.Nodes[1])
			cp, cn := l.idx(e.Nodes[2]), l.idx(e.Nodes[3])
			stampVoltageBranch(cc.constG, op, on, br)
			addA(cc.constG, br, cp, -e.Value)
			addA(cc.constG, br, cn, +e.Value)
		case netlist.VCCS:
			stampVCCS(cc.constG, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), l.idx(e.Nodes[2]), l.idx(e.Nodes[3]), e.Value)
		case netlist.MOS:
			cc.mosElems = append(cc.mosElems, mosElem{
				e.Name, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), l.idx(e.Nodes[2]), l.idx(e.Nodes[3]),
				mos[len(cc.mosElems)],
			})
		}
	}
	for phase, m := range cc.phaseG {
		cc.fillPhase(m, phase)
	}
}

// buildKernel binds the circuit's values and runs the symbolic
// analyses: the partial-pivot one (required by the complex AC solver and
// kept as the numeric fallback) and, when the pattern admits one, the
// static-ordered analysis the Newton loops prefer. The analyses depend
// only on structure, so Kernel.Bind never repeats them. Called once from
// compile.
func (cc *compiled) buildKernel(mos []device.MOSModel) {
	cc.bindValues(mos)
	pat := cc.buildPattern(true)
	cc.sym = la.Analyze(pat)
	// Base-only pattern (no MOS positions): the direct-residual path
	// multiplies the step baseline, whose MOS entries are structurally
	// zero, so its mat-vec skips them entirely.
	cc.symBase = la.Analyze(cc.buildPattern(false))
	if sym, err := la.AnalyzeOrdered(pat); err == nil {
		cc.symOrd = sym
	}
}

// buildPattern marks every matrix position any analysis can stamp for
// this circuit: the constant stamps, switch conductances in every phase,
// gmin shunts, the MOS companion entries, and the capacitive companions
// (backward-Euler/trapezoidal in transient, jωC in AC). The pattern is
// structural — derived from element incidence, never from assembled
// values, so stamps that numerically cancel still count as live.
// With includeMOS false it covers only the baseline assemblies (constant
// stamp + switches + gmin + fixed-cap companions), the pattern the
// direct-residual mat-vec runs over.
func (cc *compiled) buildPattern(includeMOS bool) *la.Pattern {
	l := cc.layout
	p := la.NewPattern(l.Size)
	markCond := func(a, b int) {
		p.Mark(a, a)
		p.Mark(b, b)
		p.Mark(a, b)
		p.Mark(b, a)
	}
	markVCCS := func(a, b, c, d int) {
		p.Mark(a, c)
		p.Mark(a, d)
		p.Mark(b, c)
		p.Mark(b, d)
	}
	markBranch := func(a, b, br int) {
		p.Mark(br, a)
		p.Mark(br, b)
		p.Mark(a, br)
		p.Mark(b, br)
	}
	for i := 0; i < len(l.Nodes); i++ {
		p.Mark(i, i) // gmin shunt
	}
	for _, e := range cc.circuit.Elements {
		switch e.Type {
		case netlist.Resistor, netlist.Capacitor, netlist.Switch:
			markCond(l.idx(e.Nodes[0]), l.idx(e.Nodes[1]))
		case netlist.VSource:
			markBranch(l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), l.BranchIndex[e.Name])
		case netlist.VCVS:
			br := l.BranchIndex[e.Name]
			markBranch(l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), br)
			p.Mark(br, l.idx(e.Nodes[2]))
			p.Mark(br, l.idx(e.Nodes[3]))
		case netlist.VCCS:
			markVCCS(l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), l.idx(e.Nodes[2]), l.idx(e.Nodes[3]))
		case netlist.MOS:
			if !includeMOS {
				continue
			}
			d, g, s, b := l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), l.idx(e.Nodes[2]), l.idx(e.Nodes[3])
			markVCCS(d, s, g, s) // gm
			markCond(d, s)       // gds
			markVCCS(d, s, b, s) // gmb
			// Meyer terminal capacitances.
			markCond(g, s)
			markCond(g, d)
			markCond(g, b)
			markCond(d, b)
			markCond(s, b)
		}
	}
	return p
}

// phaseBase returns the constant stamp extended with the switch
// conductances of the given clock phase, computed once per phase and
// cached on the compiled circuit (switched netlists see three phases:
// 1, 2, and the non-overlap gap 0). bindValues refreshes the cached
// phases in place when the kernel is rebound.
func (cc *compiled) phaseBase(phase int) *la.Matrix {
	if m, ok := cc.phaseG[phase]; ok {
		return m
	}
	m := la.NewMatrix(cc.layout.Size, cc.layout.Size)
	cc.fillPhase(m, phase)
	if cc.phaseG == nil {
		cc.phaseG = map[int]*la.Matrix{}
	}
	cc.phaseG[phase] = m
	return m
}

// fillPhase writes the constant stamp plus the given phase's switch
// conductances into m.
func (cc *compiled) fillPhase(m *la.Matrix, phase int) {
	copy(m.Data, cc.constG.Data)
	for _, sw := range cc.swElems {
		active := sw.par.Phase == 0 || sw.par.Phase == phase
		stampConductance(m, sw.p, sw.n, sw.par.Conductance(active))
	}
}

// stampMOS adds the linearized MOS companion models at candidate
// solution x: id ≈ ID + gm·Δvgs + gds·Δvds + gmb·Δvbs. This is the only
// matrix work repeated at every Newton iteration of the DC solver.
func stampMOS(cc *compiled, a *la.Matrix, b []float64, x []float64) {
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
	}
}

// stampSources adds the independent sources evaluated at time t into the
// right-hand side (their matrix incidence is part of the constant stamp).
func stampSources(cc *compiled, b []float64, t float64) {
	for i := range cc.srcElems {
		s := &cc.srcElems[i]
		v := sourceValue(s.src, t)
		if s.br >= 0 {
			b[s.br] += v
		} else {
			addRHS(b, s.p, -v)
			addRHS(b, s.n, +v)
		}
	}
}

// dcWorkspace holds every buffer the DC Newton loop touches, so an
// iteration performs zero heap allocations. The factorization runs
// through the kernelLU (static-ordered when available, partial-pivot
// fallback); r and d are the residual/step scratch of the
// modified-Newton path.
type dcWorkspace struct {
	base  *la.Matrix // baseline for this newton call: const + gmin + switches
	baseB []float64  // scaled independent-source RHS
	a     *la.Matrix
	b     []float64
	x     []float64
	xNew  []float64
	r     []float64
	d     []float64
	lu    *kernelLU
}

func (cc *compiled) dcWS() *dcWorkspace {
	if cc.dcws == nil {
		n := cc.layout.Size
		cc.dcws = &dcWorkspace{
			base: la.NewMatrix(n, n), baseB: make([]float64, n),
			a: la.NewMatrix(n, n), b: make([]float64, n),
			x: make([]float64, n), xNew: make([]float64, n),
			r: make([]float64, n), d: make([]float64, n),
			lu: newKernelLU(cc),
		}
	}
	return cc.dcws
}

// prepare assembles the per-call DC baseline: constant stamp + phase
// switches + gmin shunts in the matrix, scaled sources in the RHS.
func (ws *dcWorkspace) prepare(cc *compiled, gmin, srcScale float64, switchPhase int) {
	copy(ws.base.Data, cc.phaseBase(switchPhase).Data)
	// Gmin shunts keep floating nodes (e.g. capacitively driven gates)
	// weakly tied to ground.
	for i := 0; i < len(cc.layout.Nodes); i++ {
		ws.base.Add(i, i, gmin)
	}
	for i := range ws.baseB {
		ws.baseB[i] = 0
	}
	for i := range cc.srcElems {
		s := &cc.srcElems[i]
		v := s.src.DC * srcScale
		if s.br >= 0 {
			ws.baseB[s.br] += v
		} else {
			addRHS(ws.baseB, s.p, -v)
			addRHS(ws.baseB, s.n, +v)
		}
	}
}

// iterate runs one DC Newton iteration from ws.x: baseline copy, MOS
// stamp, in-place factor and solve into ws.xNew. It is the unit the
// allocation guard tests measure.
func (ws *dcWorkspace) iterate(cc *compiled) error {
	copy(ws.a.Data, ws.base.Data)
	copy(ws.b, ws.baseB)
	stampMOS(cc, ws.a, ws.b, ws.x)
	if err := ws.lu.factor(ws.a); err != nil {
		return err
	}
	ws.lu.solveInto(ws.xNew, ws.b)
	return nil
}

// iterateReuse is the modified-Newton (Shamanskii) variant. With
// refactor true the system is stamped fresh, factored, and solved
// directly. With refactor false the previous factorization is reused
// for a delta solve — xNew = x − M⁻¹·f(x) with M the stale factor — and
// the residual f(x) is evaluated directly (residualDC), skipping the
// matrix assembly entirely: a stale-factor iteration never reads the
// Jacobian, only the residual.
func (ws *dcWorkspace) iterateReuse(cc *compiled, refactor bool) error {
	if refactor {
		return ws.iterate(cc)
	}
	ws.lu.reused++
	ws.residualDC(cc)
	ws.lu.solveInto(ws.d, ws.r)
	for i := range ws.xNew {
		ws.xNew[i] = ws.x[i] - ws.d[i]
	}
	return nil
}

// residualDC evaluates the nonlinear DC residual f(x) at ws.x into ws.r
// without assembling the Newton system: in A(x)·x − b(x) each MOS
// companion's matrix terms cancel algebraically against its RHS
// contribution, leaving the raw drain current, so
// f(x) = base·x − baseB + Σ (±ID) at each device's drain/source rows.
func (ws *dcWorkspace) residualDC(cc *compiled) {
	cc.symBase.MulVecInto(ws.r, ws.base, ws.x)
	for i := range ws.r {
		ws.r[i] -= ws.baseB[i]
	}
	var op device.OP
	for i := range cc.mosElems {
		m := &cc.mosElems[i]
		vd, vg, vs, vb := nodeV(ws.x, m.d), nodeV(ws.x, m.g), nodeV(ws.x, m.s), nodeV(ws.x, m.b)
		m.model.EvalInto(&op, vd, vg, vs, vb)
		addRHS(ws.r, m.d, op.ID)
		addRHS(ws.r, m.s, -op.ID)
	}
}
