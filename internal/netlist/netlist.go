// Package netlist defines the circuit data model shared by the simulator,
// the small-signal extractor and the circuit generators, together with a
// SPICE-flavoured deck parser. The model is deliberately close to Berkeley
// SPICE: named nodes with "0" as ground, two-terminal primitives, MOSFETs
// referencing .model cards, controlled sources, ideal clocked switches, and
// hierarchical .subckt definitions that are flattened before simulation.
package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// ElemType enumerates the supported element classes.
type ElemType int

const (
	Resistor  ElemType = iota // R: n+ n- value
	Capacitor                 // C: n+ n- value [ic=v]
	VSource                   // V: n+ n- source spec
	ISource                   // I: n+ n- source spec
	VCVS                      // E: out+ out- ctrl+ ctrl- gain
	VCCS                      // G: out+ out- ctrl+ ctrl- gm
	MOS                       // M: d g s b model W= L=
	Switch                    // S: n+ n- model (clocked via phase param)
)

func (t ElemType) String() string {
	switch t {
	case Resistor:
		return "R"
	case Capacitor:
		return "C"
	case VSource:
		return "V"
	case ISource:
		return "I"
	case VCVS:
		return "E"
	case VCCS:
		return "G"
	case MOS:
		return "M"
	case Switch:
		return "S"
	}
	return "?"
}

// SourceKind enumerates independent-source waveforms.
type SourceKind int

const (
	SrcDC SourceKind = iota
	SrcSin
	SrcPulse
	SrcPWL
)

// Source describes an independent source: a DC operating value, an AC
// small-signal magnitude/phase for .ac analysis, and an optional transient
// waveform.
type Source struct {
	DC      float64
	ACMag   float64
	ACPhase float64 // degrees
	Kind    SourceKind
	// SIN(VO VA FREQ TD PHASE): offset, amplitude, frequency, delay, phase°.
	Sin struct{ VO, VA, Freq, Delay, Phase float64 }
	// PULSE(V1 V2 TD TR TF PW PER).
	Pulse struct{ V1, V2, TD, TR, TF, PW, PER float64 }
	// PWL points (t, v).
	PWL []struct{ T, V float64 }
}

// Element is one circuit element instance.
type Element struct {
	Name   string
	Type   ElemType
	Nodes  []string
	Value  float64
	Model  string
	Params map[string]float64
	Src    *Source
}

// Param returns a named parameter with a default.
func (e *Element) Param(name string, def float64) float64 {
	if e.Params != nil {
		if v, ok := e.Params[strings.ToLower(name)]; ok {
			return v
		}
	}
	return def
}

// Model is a .model card: a named parameter bag with a type tag
// ("nmos", "pmos", "sw").
type Model struct {
	Name   string
	Type   string
	Params map[string]float64
}

// Param returns a named model parameter with a default.
func (m *Model) Param(name string, def float64) float64 {
	if m == nil {
		return def
	}
	if v, ok := m.Params[strings.ToLower(name)]; ok {
		return v
	}
	return def
}

// Subckt is a .subckt definition before flattening.
type Subckt struct {
	Name     string
	Ports    []string
	Elements []*Element
	Insts    []*Inst
}

// Inst is an X-card instantiation of a subcircuit.
type Inst struct {
	Name   string
	Nodes  []string
	Subckt string
}

// Circuit is a flat (post-elaboration) circuit plus its model cards.
type Circuit struct {
	Title    string
	Elements []*Element
	Models   map[string]*Model
}

// New returns an empty circuit.
func New(title string) *Circuit {
	return &Circuit{Title: title, Models: map[string]*Model{}}
}

// Add appends an element, validating its terminal count and rejecting a
// name (case-insensitively) that the circuit already uses: analyses
// report devices and branch currents by element name, so a second M1
// would silently take the first one's place.
func (c *Circuit) Add(e *Element) error {
	want := map[ElemType]int{
		Resistor: 2, Capacitor: 2, VSource: 2, ISource: 2,
		VCVS: 4, VCCS: 4, MOS: 4, Switch: 2,
	}[e.Type]
	if len(e.Nodes) != want {
		return fmt.Errorf("netlist: %s needs %d nodes, got %d", e.Name, want, len(e.Nodes))
	}
	for _, n := range e.Nodes {
		if n == "" {
			return fmt.Errorf("netlist: %s has empty node name", e.Name)
		}
	}
	for _, prev := range c.Elements {
		if strings.EqualFold(prev.Name, e.Name) {
			return fmt.Errorf("netlist: duplicate element name %s", e.Name)
		}
	}
	c.Elements = append(c.Elements, e)
	return nil
}

// MustAdd is Add for generated circuits; it panics on error because a bad
// terminal count there is a programming bug, not user input.
func (c *Circuit) MustAdd(e *Element) {
	if err := c.Add(e); err != nil {
		panic(err)
	}
}

// AddModel registers a model card.
func (c *Circuit) AddModel(m *Model) { c.Models[strings.ToLower(m.Name)] = m }

// ModelFor returns the model referenced by an element, or an error if the
// element names a model that was never defined.
func (c *Circuit) ModelFor(e *Element) (*Model, error) {
	if e.Model == "" {
		return nil, fmt.Errorf("netlist: element %s has no model", e.Name)
	}
	m, ok := c.Models[strings.ToLower(e.Model)]
	if !ok {
		return nil, fmt.Errorf("netlist: element %s references undefined model %q", e.Name, e.Model)
	}
	return m, nil
}

// NodeNames returns every node name (except ground "0"), sorted.
func (c *Circuit) NodeNames() []string {
	set := map[string]bool{}
	for _, e := range c.Elements {
		for _, n := range e.Nodes {
			if n != "0" && n != "gnd" {
				set[n] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Find returns the element with the given (case-insensitive) name.
func (c *Circuit) Find(name string) *Element {
	ln := strings.ToLower(name)
	for _, e := range c.Elements {
		if strings.ToLower(e.Name) == ln {
			return e
		}
	}
	return nil
}

// String renders the circuit as a deck that Parse reads back into an
// equal circuit, source waveforms included, for the element types this
// package defines.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s\n", c.Title)
	for _, e := range c.Elements {
		fmt.Fprintf(&b, "%s %s", e.Name, strings.Join(e.Nodes, " "))
		switch e.Type {
		case Resistor, Capacitor, VCVS, VCCS:
			fmt.Fprintf(&b, " %g", e.Value)
		case MOS, Switch:
			fmt.Fprintf(&b, " %s", e.Model)
		case VSource, ISource:
			if s := e.Src; s != nil {
				fmt.Fprintf(&b, " DC %g", s.DC)
				if s.ACMag != 0 || s.ACPhase != 0 {
					fmt.Fprintf(&b, " AC %g %g", s.ACMag, s.ACPhase)
				}
				switch s.Kind {
				case SrcSin:
					w := s.Sin
					fmt.Fprintf(&b, " SIN(%g %g %g %g %g)", w.VO, w.VA, w.Freq, w.Delay, w.Phase)
				case SrcPulse:
					w := s.Pulse
					fmt.Fprintf(&b, " PULSE(%g %g %g %g %g %g %g)", w.V1, w.V2, w.TD, w.TR, w.TF, w.PW, w.PER)
				case SrcPWL:
					b.WriteString(" PWL(")
					for i, pt := range s.PWL {
						if i > 0 {
							b.WriteByte(' ')
						}
						fmt.Fprintf(&b, "%g %g", pt.T, pt.V)
					}
					b.WriteByte(')')
				}
			}
		}
		if e.Params != nil {
			keys := make([]string, 0, len(e.Params))
			for k := range e.Params {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%g", k, e.Params[k])
			}
		}
		b.WriteByte('\n')
	}
	names := make([]string, 0, len(c.Models))
	for n := range c.Models {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := c.Models[n]
		fmt.Fprintf(&b, ".model %s %s", m.Name, m.Type)
		keys := make([]string, 0, len(m.Params))
		for k := range m.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%g", k, m.Params[k])
		}
		b.WriteByte('\n')
	}
	b.WriteString(".end\n")
	return b.String()
}
