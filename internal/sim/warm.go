// warm.go keeps one compiled circuit warm across the candidate sizings
// of a topology. The expensive per-circuit work — node layout, the three
// symbolic analyses, solver workspaces — depends only on the structure
// (element names, types, connectivity), which every sizing of one
// topology shares; a candidate only changes values (device geometry,
// element values, source levels).
package sim

import (
	"fmt"

	"pipesyn/internal/netlist"
)

// Kernel is a compiled circuit that stays warm across candidate
// circuits of one topology. NewKernel compiles the first candidate; Bind
// swaps in the values of the next one. Every analysis on a rebound
// kernel is bit-identical to the same analysis on a fresh compile of
// that circuit: Bind rebuilds all value-derived state (element views,
// constant and per-phase stamps, the compiled device models), and each
// analysis re-arms the ordered-pivot path, drops any carried reuse
// factorization and overwrites its workspaces before reading them.
//
// A Kernel is not safe for concurrent use.
type Kernel struct {
	cc *compiled
}

// NewKernel compiles c into a warm kernel bound to c's values.
func NewKernel(c *netlist.Circuit) (*Kernel, error) {
	cc, err := compile(c)
	if err != nil {
		return nil, err
	}
	return &Kernel{cc: cc}, nil
}

// Bind rebinds the kernel to c, which must agree with the compiled
// circuit in element count, names, types, and node connectivity; values
// (R/C, device geometry, model cards, source levels) are free to differ.
// On error the kernel keeps its previous binding.
func (k *Kernel) Bind(c *netlist.Circuit) error {
	cc := k.cc
	if err := sameStructure(cc.circuit, c); err != nil {
		return fmt.Errorf("sim: bind: %w", err)
	}
	mos, switches, err := resolveDevices(c)
	if err != nil {
		return err
	}
	cc.circuit, cc.switches = c, switches
	cc.binding++
	cc.bindValues(mos)
	return nil
}

// OP solves the bound circuit's operating point; see sim.OP.
func (k *Kernel) OP(opts DCOpts) (*DCResult, error) {
	return opCompiled(k.cc, opts)
}

// TranFrom runs the bound circuit's transient analysis from op, an
// operating point this kernel solved for its current binding, instead of
// solving the initial operating point again. When op came from OP with
// SwitchPhase equal to the clock phase at t=0 (as sim.Tran requests),
// the result is bit-identical to sim.Tran of the bound circuit: it is
// the same problem with the same options on the same kernel.
func (k *Kernel) TranFrom(op *DCResult, opts TranOpts) (*TranResult, error) {
	cc := k.cc
	if op == nil || op.layout != cc.layout || op.binding != cc.binding {
		return nil, fmt.Errorf("sim: TranFrom needs an operating point of the kernel's current binding")
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	return tranFromState(cc, op.x, opts)
}

// sameStructure checks that two circuits share a topology: identical
// element sequence by name, type, and node connectivity. Model and value
// differences are allowed — they are exactly what a rebind varies.
func sameStructure(ref, c *netlist.Circuit) error {
	if len(ref.Elements) != len(c.Elements) {
		return fmt.Errorf("element count %d differs from reference %d", len(c.Elements), len(ref.Elements))
	}
	for i, e := range c.Elements {
		r := ref.Elements[i]
		if e.Name != r.Name || e.Type != r.Type {
			return fmt.Errorf("element %d is %s(%v), reference has %s(%v)", i, e.Name, e.Type, r.Name, r.Type)
		}
		if len(e.Nodes) != len(r.Nodes) {
			return fmt.Errorf("element %s connects %d nodes, reference %d", e.Name, len(e.Nodes), len(r.Nodes))
		}
		for j, n := range e.Nodes {
			if n != r.Nodes[j] {
				return fmt.Errorf("element %s node %d is %q, reference %q", e.Name, j, n, r.Nodes[j])
			}
		}
	}
	return nil
}
