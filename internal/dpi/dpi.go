// Package dpi implements the Driving-Point-Impedance / Signal-Flow-Graph
// construction of the paper's block-level synthesis flow (§3, step 1):
// a linearized circuit is rewritten as a signal-flow graph whose node
// equations read V_i = DPI_i · (injected currents), where DPI_i = 1/Y_ii is
// the driving-point impedance of node i and the branch from V_j into V_i
// carries gain −Y_ij/Y_ii. Applying Mason's rule to this graph (package
// sfg) yields the circuit's symbolic transfer function in terms of named
// small-signal parameters (gm_m1, gds_m1, cgs_m1, g_r1, c_c1, …); binding
// those names to values extracted from a DC simulation (package sim) gives
// the fast numerical transfer function used by the hybrid evaluator.
package dpi

import (
	"fmt"

	"pipesyn/internal/device"
	"pipesyn/internal/expr"
	"pipesyn/internal/netlist"
	"pipesyn/internal/sfg"
	"pipesyn/internal/sim"
)

// Options controls graph construction.
type Options struct {
	// Input names the AC input node. If empty, Build looks for the unique
	// voltage source with a non-zero AC magnitude and uses its + node.
	Input string
	// IncludeCaps adds capacitor and MOS-capacitance branches (s-domain
	// dynamics). Without them the graph yields the DC small-signal gain.
	IncludeCaps bool
	// SwitchPhase selects which clock phase is considered closed when the
	// circuit contains clocked switches.
	SwitchPhase int
	// ACGround lists nodes to treat as small-signal ground beyond the
	// supplies — typically low-impedance bias nodes (diode-connected
	// mirror gates). Collapsing them is the designer's usual first
	// simplification and shrinks the Mason loop set dramatically.
	ACGround []string
}

// Analysis is a constructed DPI/SFG ready for Mason's rule.
type Analysis struct {
	Graph   *sfg.Graph
	Input   string // SFG source node name
	Circuit *netlist.Circuit
	opts    Options
}

// yMatrix accumulates the symbolic nodal admittance matrix.
type yMatrix struct {
	names []string
	index map[string]int
	y     map[[2]int]expr.Expr
}

func newYMatrix() *yMatrix {
	return &yMatrix{index: map[string]int{}, y: map[[2]int]expr.Expr{}}
}

func (m *yMatrix) node(name string) int {
	if i, ok := m.index[name]; ok {
		return i
	}
	i := len(m.names)
	m.names = append(m.names, name)
	m.index[name] = i
	return i
}

func (m *yMatrix) add(i, j int, g expr.Expr) {
	if i < 0 || j < 0 {
		return
	}
	key := [2]int{i, j}
	if old, ok := m.y[key]; ok {
		m.y[key] = expr.Add(old, g)
	} else {
		m.y[key] = g
	}
}

// stampAdmittance places a two-terminal admittance between nodes a and b
// (indices, -1 = ground).
func (m *yMatrix) stampAdmittance(a, b int, g expr.Expr) {
	m.add(a, a, g)
	m.add(b, b, g)
	m.add(a, b, expr.Neg(g))
	m.add(b, a, expr.Neg(g))
}

// stampVCCS places i(p→n) = g·(v_cp − v_cn).
func (m *yMatrix) stampVCCS(p, n, cp, cn int, g expr.Expr) {
	m.add(p, cp, g)
	m.add(p, cn, expr.Neg(g))
	m.add(n, cp, expr.Neg(g))
	m.add(n, cn, g)
}

// Build constructs the DPI/SFG for a circuit. Supply-type voltage sources
// (AC magnitude zero) are treated as AC ground, the input source as the
// SFG source node. VCVS elements are not supported in symbolic analysis —
// real designs model gain with VCCS + load, and the restriction keeps the
// nodal formulation pure.
func Build(c *netlist.Circuit, opts Options) (*Analysis, error) {
	// Identify ground-aliased nodes (supply rails) and the input node.
	grounded := map[string]bool{"0": true, "gnd": true}
	for _, n := range opts.ACGround {
		grounded[n] = true
	}
	input := opts.Input
	for _, e := range c.Elements {
		if e.Type != netlist.VSource {
			continue
		}
		if e.Src != nil && e.Src.ACMag != 0 {
			if input == "" {
				input = e.Nodes[0]
			}
		} else if !isGroundName(e.Nodes[1]) {
			return nil, fmt.Errorf("dpi: supply %s must be ground-referenced", e.Name)
		} else {
			grounded[e.Nodes[0]] = true
		}
	}
	if input == "" {
		return nil, fmt.Errorf("dpi: no input node: set Options.Input or add a source with AC magnitude")
	}
	if grounded[input] {
		return nil, fmt.Errorf("dpi: input node %q is tied to an AC ground", input)
	}

	ym := newYMatrix()
	// Index every non-grounded node; the input participates in stamps as a
	// column (known voltage) but has no row of its own.
	nodeOf := func(name string) int {
		if grounded[name] {
			return -1
		}
		return ym.node(name)
	}
	for _, e := range c.Elements {
		switch e.Type {
		case netlist.Resistor, netlist.Switch:
			ym.stampAdmittance(nodeOf(e.Nodes[0]), nodeOf(e.Nodes[1]), expr.V(Cond.Var(e.Name)))
		case netlist.Capacitor:
			if !opts.IncludeCaps {
				continue
			}
			g := expr.Mul(expr.V("s"), expr.V(Cap.Var(e.Name)))
			ym.stampAdmittance(nodeOf(e.Nodes[0]), nodeOf(e.Nodes[1]), g)
		case netlist.VCCS:
			g := expr.V(Gm.Var(e.Name))
			ym.stampVCCS(nodeOf(e.Nodes[0]), nodeOf(e.Nodes[1]), nodeOf(e.Nodes[2]), nodeOf(e.Nodes[3]), g)
		case netlist.MOS:
			d, g, s, b := nodeOf(e.Nodes[0]), nodeOf(e.Nodes[1]), nodeOf(e.Nodes[2]), nodeOf(e.Nodes[3])
			ym.stampVCCS(d, s, g, s, expr.V(Gm.Var(e.Name)))
			ym.stampAdmittance(d, s, expr.V(Gds.Var(e.Name)))
			ym.stampVCCS(d, s, b, s, expr.V(Gmb.Var(e.Name)))
			if opts.IncludeCaps {
				sC := func(f Field) expr.Expr {
					return expr.Mul(expr.V("s"), expr.V(f.Var(e.Name)))
				}
				ym.stampAdmittance(g, s, sC(Cgs))
				ym.stampAdmittance(g, d, sC(Cgd))
				ym.stampAdmittance(g, b, sC(Cgb))
				ym.stampAdmittance(d, b, sC(Cdb))
				ym.stampAdmittance(s, b, sC(Csb))
			}
		case netlist.ISource, netlist.VSource:
			// Independent sources carry no admittance.
		case netlist.VCVS:
			return nil, fmt.Errorf("dpi: VCVS %s unsupported in symbolic analysis; model gain with a VCCS", e.Name)
		}
	}

	// The input node must have been indexed (as a column) by some stamp.
	inIdx, ok := ym.index[input]
	if !ok {
		return nil, fmt.Errorf("dpi: input node %q touches no element", input)
	}

	// Assemble the SFG: V_i = Σ_{j≠i} (−Y_ij/Y_ii)·V_j.
	g := sfg.New()
	g.AddNode(input)
	for i, name := range ym.names {
		if i == inIdx {
			continue // known voltage: source node, no equation
		}
		yii, ok := ym.y[[2]int{i, i}]
		if !ok || yii.IsZero() {
			return nil, fmt.Errorf("dpi: node %q has zero self-admittance (floating)", name)
		}
		for j, from := range ym.names {
			if j == i {
				continue
			}
			yij, ok := ym.y[[2]int{i, j}]
			if !ok || yij.IsZero() {
				continue
			}
			g.AddEdge(from, name, expr.Div(expr.Neg(yij), yii))
		}
	}
	return &Analysis{Graph: g, Input: input, Circuit: c, opts: opts}, nil
}

func isGroundName(n string) bool { return n == "0" || n == "gnd" }

// TransferFunction applies Mason's rule from the input to the given node,
// returning the symbolic voltage transfer function.
func (a *Analysis) TransferFunction(out string) (expr.Expr, error) {
	return a.Graph.TransferFunction(a.Input, out)
}

// Field is one small-signal quantity of an element: each variable of a
// transfer function is one field of one element, named by Var and valued
// by Value, the definitions Build, Env and slot-bound callers share.
type Field uint8

// The fields: g_ (1/R, or a switch's on or off conductance), c_ (a
// capacitance), gm_ (a VCCS gain or a MOSFET's gm) and the MOSFET
// operating-point fields gds_ to csb_.
const (
	Cond Field = iota
	Cap
	Gm
	Gds
	Gmb
	Cgs
	Cgd
	Cgb
	Cdb
	Csb
)

var fieldPrefix = [...]string{"g_", "c_", "gm_", "gds_", "gmb_", "cgs_", "cgd_", "cgb_", "cdb_", "csb_"}

var fieldsOf = map[netlist.ElemType][]Field{
	netlist.Resistor: {Cond}, netlist.Switch: {Cond}, netlist.Capacitor: {Cap}, netlist.VCCS: {Gm},
	netlist.MOS: {Gm, Gds, Gmb, Cgs, Cgd, Cgb, Cdb, Csb},
}

// FieldsOf lists the fields an element of type t contributes.
func FieldsOf(t netlist.ElemType) []Field { return fieldsOf[t] }

// Var is the transfer-function variable of field f of the named element.
func (f Field) Var(elem string) string { return fieldPrefix[f] + elem }

// Value is field f of element e of circuit c: read from the element for
// R, C, VCCS and switches, from mop, e's operating point, for a MOSFET.
func (f Field) Value(c *netlist.Circuit, e *netlist.Element, mop *device.OP, opts Options) (float64, error) {
	switch e.Type {
	case netlist.Resistor:
		return 1 / e.Value, nil
	case netlist.Capacitor, netlist.VCCS:
		return e.Value, nil
	case netlist.Switch:
		m, err := c.ModelFor(e)
		if err != nil {
			return 0, err
		}
		if phase := int(e.Param("phase", 0)); phase == 0 || phase == opts.SwitchPhase {
			return 1 / m.Param("ron", 1e3), nil
		}
		return 1 / m.Param("roff", 1e12), nil
	}
	return [...]float64{Gm: mop.GM, Gds: mop.GDS, Gmb: mop.GMB, Cgs: mop.CGS,
		Cgd: mop.CGD, Cgb: mop.CGB, Cdb: mop.CDB, Csb: mop.CSB}[f], nil
}

// Env binds every small-signal variable of the analysis to its numeric
// value: element values for R/C/VCCS/switch, DC-extracted gm/gds/caps for
// MOSFETs. The Laplace variable "s" stays free.
func Env(c *netlist.Circuit, op *sim.DCResult, opts Options) (map[string]float64, error) {
	env := map[string]float64{}
	for _, e := range c.Elements {
		var mop device.OP
		if e.Type == netlist.MOS {
			var ok bool
			if mop, ok = op.MOS[e.Name]; !ok {
				return nil, fmt.Errorf("dpi: operating point missing %s", e.Name)
			}
		}
		for _, f := range FieldsOf(e.Type) {
			v, err := f.Value(c, e, &mop, opts)
			if err != nil {
				return nil, err
			}
			env[f.Var(e.Name)] = v
		}
	}
	return env, nil
}
