// Package sim is the circuit simulation engine: a modified-nodal-analysis
// (MNA) assembler with a Newton–Raphson DC operating-point solver
// (gmin and source stepping for robustness), a complex-valued AC analysis,
// and a trapezoidal transient analysis with two-phase clocked switches for
// switched-capacitor circuits. It is the "simulation side" of the paper's
// hybrid evaluation flow; the "equation side" lives in internal/dpi and
// internal/expr.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"pipesyn/internal/device"
	"pipesyn/internal/la"
	"pipesyn/internal/netlist"
)

// Layout maps circuit nodes and source branch currents onto MNA unknowns.
// Ground ("0"/"gnd") is excluded; voltage-defined elements (V, E) get an
// extra branch-current row each.
type Layout struct {
	NodeIndex   map[string]int
	BranchIndex map[string]int // element name → branch unknown
	Nodes       []string       // index → name
	Size        int
}

// NewLayout builds the unknown map for a circuit.
func NewLayout(c *netlist.Circuit) *Layout {
	l := &Layout{NodeIndex: map[string]int{}, BranchIndex: map[string]int{}}
	for _, e := range c.Elements {
		for _, n := range e.Nodes {
			if isGround(n) {
				continue
			}
			if _, ok := l.NodeIndex[n]; !ok {
				l.NodeIndex[n] = len(l.Nodes)
				l.Nodes = append(l.Nodes, n)
			}
		}
	}
	next := len(l.Nodes)
	for _, e := range c.Elements {
		if e.Type == netlist.VSource || e.Type == netlist.VCVS {
			l.BranchIndex[e.Name] = next
			next++
		}
	}
	l.Size = next
	return l
}

func isGround(n string) bool { return n == "0" || n == "gnd" }

// idx returns the matrix row for a node, or -1 for ground.
func (l *Layout) idx(node string) int {
	if isGround(node) {
		return -1
	}
	i, ok := l.NodeIndex[node]
	if !ok {
		panic(fmt.Sprintf("sim: unknown node %q", node))
	}
	return i
}

// compiled is the per-simulation view of a circuit: elements paired with
// their resolved device parameters so the assembly loop never re-parses
// model cards, plus the kernel layer (see kernel.go): element views with
// pre-resolved MNA indices, the constant stamp shared by every analysis,
// and the reusable solver workspaces.
type compiled struct {
	circuit  *netlist.Circuit
	layout   *Layout
	switches map[string]device.SwitchParams // by name: the AC and noise assemblers look switches up

	mosElems []mosElem
	capElems []capElem
	swElems  []swElem
	srcElems []srcElem
	constG   *la.Matrix         // R/VCVS/VCCS/V-branch stamps: no gmin, no switches
	phaseG   map[int]*la.Matrix // constG + switch conductances, per clock phase
	sym      *la.Symbolic       // sparsity analysis of the full MNA stamp union
	symBase  *la.Symbolic       // baseline-only pattern for the residual mat-vec
	symOrd   *la.Symbolic       // static-ordered analysis, nil if no safe order
	dcws     *dcWorkspace
	trun     *tranRun
	binding  uint64 // bumped by Kernel.Bind; ties a DCResult to the values it solved

	// fullNewton is the package-internal full-Newton oracle: every
	// Newton iteration refactors instead of reusing a stale
	// factorization. Production analyses never set it; the equivalence
	// tests compare the reuse path against it.
	fullNewton bool
}

// resolveDevices validates element values and resolves model cards into
// the compiled MOS models, in element order, and the switch parameters.
// Shared by compile and Kernel.Bind so a rebound candidate sees exactly
// the standalone validation.
func resolveDevices(c *netlist.Circuit) ([]device.MOSModel, map[string]device.SwitchParams, error) {
	n := 0
	for _, e := range c.Elements {
		if e.Type == netlist.MOS {
			n++
		}
	}
	mos := make([]device.MOSModel, 0, n)
	switches := map[string]device.SwitchParams{}
	for _, e := range c.Elements {
		switch e.Type {
		case netlist.MOS:
			m, err := c.ModelFor(e)
			if err != nil {
				return nil, nil, err
			}
			p, err := device.FromNetlist(e, m)
			if err != nil {
				return nil, nil, err
			}
			mos = append(mos, p.Compile())
		case netlist.Switch:
			m, err := c.ModelFor(e)
			if err != nil {
				return nil, nil, err
			}
			switches[e.Name] = device.SwitchFromNetlist(e, m)
		case netlist.Resistor:
			if e.Value <= 0 {
				return nil, nil, fmt.Errorf("sim: %s has non-positive resistance %g", e.Name, e.Value)
			}
		case netlist.Capacitor:
			if e.Value <= 0 {
				return nil, nil, fmt.Errorf("sim: %s has non-positive capacitance %g", e.Name, e.Value)
			}
		case netlist.VSource, netlist.ISource:
			if e.Src == nil {
				return nil, nil, fmt.Errorf("sim: source %s has no waveform", e.Name)
			}
		}
	}
	return mos, switches, nil
}

func compile(c *netlist.Circuit) (*compiled, error) {
	mos, switches, err := resolveDevices(c)
	if err != nil {
		return nil, err
	}
	cc := &compiled{
		circuit:  c,
		layout:   NewLayout(c),
		switches: switches,
	}
	if cc.layout.Size == 0 {
		return nil, fmt.Errorf("sim: circuit %q has no unknowns", c.Title)
	}
	cc.buildKernel(mos)
	return cc, nil
}

// describeState renders node voltages for error messages and debug logs.
func (l *Layout) describeState(x []float64) string {
	names := make([]string, len(l.Nodes))
	copy(names, l.Nodes)
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.4g", n, x[l.NodeIndex[n]]))
	}
	return strings.Join(parts, " ")
}
