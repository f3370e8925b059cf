package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"pipesyn/internal/la"
	"pipesyn/internal/netlist"
)

// NoiseOpts configures the small-signal noise analysis.
type NoiseOpts struct {
	Output          string  // node whose noise is reported
	FStart, FStop   float64 // integration band, Hz
	PointsPerDecade int     // default 20
	Temp            float64 // kelvin, default 300
	SwitchPhase     int     // clock phase considered closed
}

// gammaMOS is the MOS channel thermal-noise factor: the long-channel
// value (short-channel devices run hotter).
const gammaMOS = 2.0 / 3.0

// NoiseResult holds the output-referred noise analysis.
type NoiseResult struct {
	Freqs      []float64
	PSD        []float64          // output noise density, V²/Hz
	Integrated float64            // total output noise power over the band, V²
	ByElement  map[string]float64 // integrated contribution per noisy element, V²
}

// RMS returns the integrated output noise in volts RMS.
func (r *NoiseResult) RMS() float64 { return math.Sqrt(r.Integrated) }

// noiseSource is one white-noise current source in the linearized network.
type noiseSource struct {
	element string
	p, n    int     // injection nodes (MNA indices, -1 = ground)
	psd     float64 // current noise density, A²/Hz
}

// Noise computes the output-referred thermal noise of the circuit
// linearized at the operating point: resistor and closed-switch Johnson
// noise (4kT/R) and MOS channel noise (4kTγ·gm), each propagated to the
// output through the complex MNA system and summed in power. Flicker
// noise is out of scope — the paper's budgets are thermal (kT/C).
func Noise(c *netlist.Circuit, op *DCResult, opts NoiseOpts) (*NoiseResult, error) {
	if opts.Output == "" {
		return nil, fmt.Errorf("sim: noise analysis needs an output node")
	}
	if opts.FStart <= 0 || opts.FStop <= opts.FStart {
		return nil, fmt.Errorf("sim: bad noise band [%g, %g]", opts.FStart, opts.FStop)
	}
	if opts.PointsPerDecade <= 0 {
		opts.PointsPerDecade = 20
	}
	if opts.Temp == 0 {
		opts.Temp = 300
	}
	cc, err := compile(c)
	if err != nil {
		return nil, err
	}
	l := cc.layout
	outIdx := -1
	if !isGround(opts.Output) {
		i, ok := l.NodeIndex[opts.Output]
		if !ok {
			return nil, fmt.Errorf("sim: unknown output node %q", opts.Output)
		}
		outIdx = i
	}
	if outIdx < 0 {
		return nil, fmt.Errorf("sim: output node is ground")
	}

	const kB = 1.380649e-23
	fourKT := 4 * kB * opts.Temp

	// Enumerate noise sources from the linearized elements.
	var sources []noiseSource
	for _, e := range cc.circuit.Elements {
		switch e.Type {
		case netlist.Resistor:
			sources = append(sources, noiseSource{
				element: e.Name,
				p:       l.idx(e.Nodes[0]), n: l.idx(e.Nodes[1]),
				psd: fourKT / e.Value,
			})
		case netlist.Switch:
			sw := cc.switches[e.Name]
			active := sw.Phase == 0 || sw.Phase == opts.SwitchPhase
			g := sw.Conductance(active)
			// An open switch's 10^-12 S contributes nothing measurable;
			// skip it to keep the source list tight.
			if active {
				sources = append(sources, noiseSource{
					element: e.Name,
					p:       l.idx(e.Nodes[0]), n: l.idx(e.Nodes[1]),
					psd: fourKT * g,
				})
			}
		case netlist.MOS:
			mop, ok := op.MOS[e.Name]
			if !ok {
				return nil, fmt.Errorf("sim: operating point missing %s", e.Name)
			}
			if mop.GM <= 0 {
				continue // off devices are noiseless to first order
			}
			sources = append(sources, noiseSource{
				element: e.Name,
				p:       l.idx(e.Nodes[0]), n: l.idx(e.Nodes[2]), // drain–source
				psd: fourKT * gammaMOS * mop.GM,
			})
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("sim: circuit has no noise sources")
	}

	// Assemble the same (G, C) pair the AC analysis uses.
	g, cap, err := buildSmallSignal(cc, op, opts.SwitchPhase)
	if err != nil {
		return nil, err
	}
	n := l.Size
	decades := math.Log10(opts.FStop / opts.FStart)
	nPts := int(decades*float64(opts.PointsPerDecade)) + 1
	if nPts < 2 {
		nPts = 2
	}
	res := &NoiseResult{
		Freqs:     make([]float64, 0, nPts),
		PSD:       make([]float64, 0, nPts),
		ByElement: map[string]float64{},
	}
	sys := newACSweep(cc, g, cap)
	b := make([]complex128, n)
	x := make([]complex128, n)
	perSrc := make([]float64, len(sources))
	perSrcPrev := make([]float64, len(sources))
	prevF, prevPSD := 0.0, 0.0
	for k := 0; k < nPts; k++ {
		f := opts.FStart * math.Pow(10, decades*float64(k)/float64(nPts-1))
		sys.setFreq(2 * math.Pi * f)
		if err := sys.lu.NumericFactor(sys.a); err != nil {
			return nil, fmt.Errorf("sim: noise solve failed at %g Hz: %w", f, err)
		}
		total := 0.0
		for si, src := range sources {
			for i := range b {
				b[i] = 0
			}
			if src.p >= 0 {
				b[src.p] -= 1
			}
			if src.n >= 0 {
				b[src.n] += 1
			}
			sys.lu.SolveInto(x, b)
			h := cmplx.Abs(x[outIdx])
			contrib := h * h * src.psd
			perSrc[si] = contrib
			total += contrib
		}
		res.Freqs = append(res.Freqs, f)
		res.PSD = append(res.PSD, total)
		if k > 0 {
			df := f - prevF
			res.Integrated += 0.5 * (total + prevPSD) * df
			for si := range sources {
				res.ByElement[sources[si].element] += 0.5 * (perSrc[si] + perSrcPrev[si]) * df
			}
		}
		prevF, prevPSD = f, total
		perSrc, perSrcPrev = perSrcPrev, perSrc
	}
	return res, nil
}

// buildSmallSignal assembles the conductance and capacitance matrices of
// the circuit linearized at op (shared by AC and noise analyses).
func buildSmallSignal(cc *compiled, op *DCResult, switchPhase int) (*la.Matrix, *la.Matrix, error) {
	l := cc.layout
	n := l.Size
	g := la.NewMatrix(n, n)
	cap := la.NewMatrix(n, n)
	for i := 0; i < len(l.Nodes); i++ {
		g.Add(i, i, gmin)
	}
	for _, e := range cc.circuit.Elements {
		switch e.Type {
		case netlist.Resistor:
			stampConductance(g, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), 1/e.Value)
		case netlist.Capacitor:
			stampConductance(cap, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), e.Value)
		case netlist.Switch:
			sw := cc.switches[e.Name]
			active := sw.Phase == 0 || sw.Phase == switchPhase
			stampConductance(g, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), sw.Conductance(active))
		case netlist.VSource:
			br := l.BranchIndex[e.Name]
			stampVoltageBranch(g, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), br)
		case netlist.VCVS:
			br := l.BranchIndex[e.Name]
			op2, on := l.idx(e.Nodes[0]), l.idx(e.Nodes[1])
			cp, cn := l.idx(e.Nodes[2]), l.idx(e.Nodes[3])
			stampVoltageBranch(g, op2, on, br)
			addA(g, br, cp, -e.Value)
			addA(g, br, cn, +e.Value)
		case netlist.VCCS:
			stampVCCS(g, l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), l.idx(e.Nodes[2]), l.idx(e.Nodes[3]), e.Value)
		case netlist.MOS:
			mop, ok := op.MOS[e.Name]
			if !ok {
				return nil, nil, fmt.Errorf("sim: operating point missing transistor %s", e.Name)
			}
			d, gt, s, bk := l.idx(e.Nodes[0]), l.idx(e.Nodes[1]), l.idx(e.Nodes[2]), l.idx(e.Nodes[3])
			stampVCCS(g, d, s, gt, s, mop.GM)
			stampConductance(g, d, s, mop.GDS)
			stampVCCS(g, d, s, bk, s, mop.GMB)
			stampConductance(cap, gt, s, mop.CGS)
			stampConductance(cap, gt, d, mop.CGD)
			stampConductance(cap, gt, bk, mop.CGB)
			stampConductance(cap, d, bk, mop.CDB)
			stampConductance(cap, s, bk, mop.CSB)
		}
	}
	return g, cap, nil
}
