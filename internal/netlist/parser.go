package netlist

import (
	"fmt"
	"strings"

	"pipesyn/internal/units"
)

// Parse reads a SPICE-flavoured deck and elaborates it into a flat Circuit.
// Supported cards: R, C, V, I, E, G, M, S elements; .model; .param;
// .subckt/.ends with X instantiation (flattened, nested allowed); '*' and
// ';' comments; '+' continuation lines. The first line is the title unless
// it parses as a card; a deck of one line must be a card. A card's type is
// the first letter of its name's last dot-separated part, so a flattened
// element such as "x1.r1" reads back as the resistor it is. Parameter
// references use {name} after .param.
func Parse(src string) (*Circuit, error) {
	p := &parser{
		params:  map[string]float64{},
		subckts: map[string]*Subckt{},
	}
	return p.parse(src)
}

type parser struct {
	params  map[string]float64
	subckts map[string]*Subckt
}

func (p *parser) parse(src string) (*Circuit, error) {
	lines := joinContinuations(src)
	c := New("")
	// asTitle takes line i, which failed as a card, as the title instead
	// when it is the first line and another line follows.
	asTitle := func(i int, raw string) bool {
		if i != 0 || strings.TrimSpace(strings.Join(lines[1:], "")) == "" {
			return false
		}
		c.Title = strings.TrimSpace(raw)
		return true
	}
	var curSub *Subckt // non-nil while inside .subckt
	var topInsts []*Inst

	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "*") {
			if i == 0 && line != "" {
				c.Title = strings.TrimSpace(strings.TrimPrefix(line, "*"))
			}
			continue
		}
		if idx := strings.IndexByte(line, ';'); idx >= 0 {
			line = strings.TrimSpace(line[:idx])
			if line == "" {
				continue
			}
		}
		fields := strings.Fields(line)
		head := strings.ToLower(fields[0])
		switch {
		case head == ".end":
			// done; ignore anything after
		case head == ".param":
			if err := p.parseParam(fields[1:]); err != nil {
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
		case head == ".model":
			m, err := p.parseModel(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
			c.AddModel(m)
		case head == ".subckt":
			if curSub != nil {
				return nil, fmt.Errorf("line %d: nested .subckt definitions are not supported", i+1)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: .subckt needs a name", i+1)
			}
			curSub = &Subckt{Name: strings.ToLower(fields[1]), Ports: lowerAll(fields[2:])}
		case head == ".ends":
			if curSub == nil {
				return nil, fmt.Errorf("line %d: .ends without .subckt", i+1)
			}
			p.subckts[curSub.Name] = curSub
			curSub = nil
		case strings.HasPrefix(head, "."):
			// Analysis cards (.op/.ac/.tran) are handled by the CLI, not
			// the circuit model; skip silently.
		case cardLetter(head) == 'x':
			inst, err := p.parseInst(fields)
			if err != nil {
				if asTitle(i, raw) {
					continue
				}
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
			if curSub != nil {
				curSub.Insts = append(curSub.Insts, inst)
			} else {
				topInsts = append(topInsts, inst)
			}
		default:
			e, err := p.parseElement(fields)
			if err != nil {
				if asTitle(i, raw) {
					continue
				}
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
			if curSub != nil {
				curSub.Elements = append(curSub.Elements, e)
			} else if err := c.Add(e); err != nil {
				return nil, fmt.Errorf("line %d: %v", i+1, err)
			}
		}
	}
	if curSub != nil {
		return nil, fmt.Errorf("netlist: unterminated .subckt %s", curSub.Name)
	}
	// Flatten subcircuit instances (depth-first, cycle-checked).
	for _, inst := range topInsts {
		if err := p.flatten(c, inst, map[string]bool{}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// flatten expands one instance into c, renaming internal nodes to
// "<instpath>.<node>" and elements to "<instpath>.<name>". The instance's
// own node list is already fully resolved (top-level names, or mapped by
// the enclosing flatten call).
func (p *parser) flatten(c *Circuit, inst *Inst, active map[string]bool) error {
	def, ok := p.subckts[inst.Subckt]
	if !ok {
		return fmt.Errorf("netlist: instance %s references undefined subckt %q", inst.Name, inst.Subckt)
	}
	if active[inst.Subckt] {
		return fmt.Errorf("netlist: recursive subckt %q", inst.Subckt)
	}
	if len(inst.Nodes) != len(def.Ports) {
		return fmt.Errorf("netlist: instance %s has %d nodes, subckt %s has %d ports",
			inst.Name, len(inst.Nodes), def.Name, len(def.Ports))
	}
	active[inst.Subckt] = true
	defer delete(active, inst.Subckt)

	nodeMap := map[string]string{"0": "0", "gnd": "0"}
	for i, port := range def.Ports {
		nodeMap[port] = inst.Nodes[i]
	}
	mapNode := func(n string) string {
		if m, ok := nodeMap[n]; ok {
			return m
		}
		return inst.Name + "." + n
	}
	for _, e := range def.Elements {
		clone := &Element{
			Name:  inst.Name + "." + e.Name,
			Type:  e.Type,
			Value: e.Value,
			Model: e.Model,
			Src:   e.Src,
		}
		if e.Params != nil {
			clone.Params = map[string]float64{}
			for k, v := range e.Params {
				clone.Params[k] = v
			}
		}
		for _, n := range e.Nodes {
			clone.Nodes = append(clone.Nodes, mapNode(n))
		}
		if err := c.Add(clone); err != nil {
			return err
		}
	}
	for _, sub := range def.Insts {
		nested := &Inst{Name: inst.Name + "." + sub.Name, Subckt: sub.Subckt}
		for _, n := range sub.Nodes {
			nested.Nodes = append(nested.Nodes, mapNode(n))
		}
		if err := p.flatten(c, nested, active); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseParam(fields []string) error {
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf(".param entry %q is not name=value", f)
		}
		val, err := p.value(v)
		if err != nil {
			return err
		}
		p.params[strings.ToLower(k)] = val
	}
	return nil
}

func (p *parser) parseModel(fields []string) (*Model, error) {
	if len(fields) < 2 {
		return nil, fmt.Errorf(".model needs name and type")
	}
	m := &Model{Name: strings.ToLower(fields[0]), Type: strings.ToLower(fields[1]), Params: map[string]float64{}}
	rest := strings.Join(fields[2:], " ")
	rest = strings.NewReplacer("(", " ", ")", " ", ",", " ").Replace(rest)
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf(".model parameter %q is not name=value", f)
		}
		val, err := p.value(v)
		if err != nil {
			return nil, err
		}
		m.Params[strings.ToLower(k)] = val
	}
	return m, nil
}

func (p *parser) parseInst(fields []string) (*Inst, error) {
	// Xname n1 n2 ... subcktName
	if len(fields) < 3 {
		return nil, fmt.Errorf("X card needs nodes and a subckt name")
	}
	return &Inst{
		Name:   strings.ToLower(fields[0]),
		Nodes:  lowerAll(fields[1 : len(fields)-1]),
		Subckt: strings.ToLower(fields[len(fields)-1]),
	}, nil
}

func (p *parser) parseElement(fields []string) (*Element, error) {
	name := strings.ToLower(fields[0])
	args := lowerAll(fields[1:])
	e := &Element{Name: name}
	letter := cardLetter(name)
	switch letter {
	case 'r', 'c':
		if letter == 'r' {
			e.Type = Resistor
		} else {
			e.Type = Capacitor
		}
		if len(args) < 3 {
			return nil, fmt.Errorf("%s: needs 2 nodes and a value", name)
		}
		e.Nodes = args[:2]
		v, err := p.value(args[2])
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		e.Value = v
		if err := p.keyParams(e, args[3:]); err != nil {
			return nil, err
		}
	case 'v', 'i':
		if letter == 'v' {
			e.Type = VSource
		} else {
			e.Type = ISource
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("%s: needs 2 nodes", name)
		}
		e.Nodes = args[:2]
		src, err := p.parseSource(args[2:])
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		e.Src = src
	case 'e', 'g':
		if letter == 'e' {
			e.Type = VCVS
		} else {
			e.Type = VCCS
		}
		if len(args) < 5 {
			return nil, fmt.Errorf("%s: needs 4 nodes and a gain", name)
		}
		e.Nodes = args[:4]
		v, err := p.value(args[4])
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		e.Value = v
	case 'm':
		e.Type = MOS
		if len(args) < 5 {
			return nil, fmt.Errorf("%s: needs d g s b and a model", name)
		}
		e.Nodes = args[:4]
		e.Model = args[4]
		if err := p.keyParams(e, args[5:]); err != nil {
			return nil, err
		}
	case 's':
		e.Type = Switch
		if len(args) < 3 {
			return nil, fmt.Errorf("%s: needs 2 nodes and a model", name)
		}
		e.Nodes = args[:2]
		e.Model = args[2]
		if err := p.keyParams(e, args[3:]); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unsupported element %q", name)
	}
	return e, nil
}

// parseSource handles "DC v", "AC mag [phase]", "SIN(...)", "PULSE(...)",
// "PWL(...)" and bare numeric DC values, in any order, with at most one
// of the three waveforms.
func (p *parser) parseSource(args []string) (*Source, error) {
	s := &Source{}
	// Re-tokenize so parentheses separate cleanly: "sin(0" → "sin ( 0".
	joined := strings.Join(args, " ")
	joined = strings.NewReplacer("(", " ( ", ")", " ) ", ",", " ").Replace(joined)
	toks := strings.Fields(joined)
	i := 0
	next := func() (string, bool) {
		if i < len(toks) {
			t := toks[i]
			i++
			return t, true
		}
		return "", false
	}
	readGroup := func() ([]float64, error) {
		var vals []float64
		t, ok := next()
		paren := false
		if ok && t == "(" {
			paren = true
			t, ok = next()
		}
		for ok && t != ")" {
			v, err := p.value(t)
			if err != nil {
				if paren {
					return nil, err
				}
				i-- // not ours; push back
				break
			}
			vals = append(vals, v)
			t, ok = next()
		}
		return vals, nil
	}
	for {
		t, ok := next()
		if !ok {
			break
		}
		if (t == "sin" || t == "pulse" || t == "pwl") && s.Kind != SrcDC {
			return nil, fmt.Errorf("%s after another waveform: a source takes one", strings.ToUpper(t))
		}
		switch t {
		case "dc":
			t2, ok := next()
			if !ok {
				return nil, fmt.Errorf("DC needs a value")
			}
			v, err := p.value(t2)
			if err != nil {
				return nil, err
			}
			s.DC = v
		case "ac":
			t2, ok := next()
			if !ok {
				return nil, fmt.Errorf("AC needs a magnitude")
			}
			v, err := p.value(t2)
			if err != nil {
				return nil, err
			}
			s.ACMag = v
			if i < len(toks) {
				if ph, err := p.value(toks[i]); err == nil {
					s.ACPhase = ph
					i++
				}
			}
		case "sin":
			vals, err := readGroup()
			if err != nil {
				return nil, err
			}
			if len(vals) < 3 {
				return nil, fmt.Errorf("SIN needs VO VA FREQ")
			}
			s.Kind = SrcSin
			s.Sin.VO, s.Sin.VA, s.Sin.Freq = vals[0], vals[1], vals[2]
			if len(vals) > 3 {
				s.Sin.Delay = vals[3]
			}
			if len(vals) > 4 {
				s.Sin.Phase = vals[4]
			}
		case "pulse":
			vals, err := readGroup()
			if err != nil {
				return nil, err
			}
			if len(vals) < 7 {
				return nil, fmt.Errorf("PULSE needs V1 V2 TD TR TF PW PER")
			}
			s.Kind = SrcPulse
			s.Pulse.V1, s.Pulse.V2, s.Pulse.TD = vals[0], vals[1], vals[2]
			s.Pulse.TR, s.Pulse.TF, s.Pulse.PW, s.Pulse.PER = vals[3], vals[4], vals[5], vals[6]
		case "pwl":
			vals, err := readGroup()
			if err != nil {
				return nil, err
			}
			if len(vals)%2 != 0 || len(vals) == 0 {
				return nil, fmt.Errorf("PWL needs (t,v) pairs")
			}
			s.Kind = SrcPWL
			for j := 0; j < len(vals); j += 2 {
				s.PWL = append(s.PWL, struct{ T, V float64 }{vals[j], vals[j+1]})
			}
		default:
			// Bare value is DC.
			v, err := p.value(t)
			if err != nil {
				return nil, fmt.Errorf("unrecognized source token %q", t)
			}
			s.DC = v
		}
	}
	return s, nil
}

// keyParams parses trailing name=value pairs into e.Params.
func (p *parser) keyParams(e *Element, args []string) error {
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("%s: expected name=value, got %q", e.Name, a)
		}
		val, err := p.value(v)
		if err != nil {
			return fmt.Errorf("%s: %v", e.Name, err)
		}
		if e.Params == nil {
			e.Params = map[string]float64{}
		}
		e.Params[strings.ToLower(k)] = val
	}
	return nil
}

// value resolves "{param}" references and engineering-notation literals.
func (p *parser) value(tok string) (float64, error) {
	if strings.HasPrefix(tok, "{") && strings.HasSuffix(tok, "}") {
		name := strings.ToLower(tok[1 : len(tok)-1])
		v, ok := p.params[name]
		if !ok {
			return 0, fmt.Errorf("undefined parameter %q", name)
		}
		return v, nil
	}
	return units.Parse(tok)
}

// joinContinuations merges SPICE '+' continuation lines.
func joinContinuations(src string) []string {
	raw := strings.Split(src, "\n")
	var out []string
	for _, line := range raw {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "+") && len(out) > 0 {
			out[len(out)-1] += " " + strings.TrimPrefix(trimmed, "+")
		} else {
			out = append(out, line)
		}
	}
	return out
}

// cardLetter is the letter that gives a card named name its type: the
// first of the name's last dot-separated part. A name that does not
// start with a letter keeps its first byte, so Parse rejects it.
func cardLetter(name string) byte {
	if i := strings.LastIndexByte(name, '.'); i >= 0 && i+1 < len(name) && name[0] >= 'a' && name[0] <= 'z' {
		return name[i+1]
	}
	return name[0]
}

func lowerAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.ToLower(s)
	}
	return out
}
