package netlist

import (
	"fmt"
	"sort"
	"strings"
)

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
