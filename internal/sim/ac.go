package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"pipesyn/internal/la"
	"pipesyn/internal/netlist"
)

// ACOpts configures the small-signal frequency sweep.
type ACOpts struct {
	FStart, FStop   float64
	PointsPerDecade int
	SwitchPhase     int // clock phase considered active (matches the DC bias point)
}

// ACResult holds the complex node voltages over the sweep.
type ACResult struct {
	Freqs []float64
	V     map[string][]complex128
}

// Transfer returns the complex response at a node across the sweep; the
// stimulus normalization is whatever AC magnitude the deck's sources carry
// (conventionally 1).
func (r *ACResult) Transfer(node string) ([]complex128, error) {
	v, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("sim: no node %q in AC solution", node)
	}
	return v, nil
}

// GainPhase converts a transfer vector into magnitude (dB) and unwrapped
// phase (degrees) arrays.
func GainPhase(h []complex128) (magDB, phaseDeg []float64) {
	magDB = make([]float64, len(h))
	phaseDeg = make([]float64, len(h))
	prev := 0.0
	for i, v := range h {
		magDB[i] = 20 * math.Log10(cmplx.Abs(v)+1e-300)
		ph := cmplx.Phase(v) * 180 / math.Pi
		if i > 0 {
			for ph-prev > 180 {
				ph -= 360
			}
			for ph-prev < -180 {
				ph += 360
			}
		}
		phaseDeg[i] = ph
		prev = ph
	}
	return magDB, phaseDeg
}

// Metrics extracted from an AC sweep of a gain path.
type ACMetrics struct {
	DCGainDB    float64
	UnityGainHz float64
	PhaseMargin float64
	F3DBHz      float64
}

// Characterize extracts loop metrics from a node's transfer response.
func (r *ACResult) Characterize(node string) (ACMetrics, error) {
	h, err := r.Transfer(node)
	if err != nil {
		return ACMetrics{}, err
	}
	magDB, phase := GainPhase(h)
	var m ACMetrics
	m.DCGainDB = magDB[0]
	target3 := magDB[0] - 20*math.Log10(math.Sqrt2)
	for i := 1; i < len(magDB); i++ {
		if m.F3DBHz == 0 && magDB[i-1] >= target3 && magDB[i] < target3 {
			m.F3DBHz = logInterp(r.Freqs[i-1], r.Freqs[i], magDB[i-1], magDB[i], target3)
		}
		if m.UnityGainHz == 0 && magDB[i-1] >= 0 && magDB[i] < 0 {
			m.UnityGainHz = logInterp(r.Freqs[i-1], r.Freqs[i], magDB[i-1], magDB[i], 0)
			frac := (math.Log10(m.UnityGainHz) - math.Log10(r.Freqs[i-1])) /
				(math.Log10(r.Freqs[i]) - math.Log10(r.Freqs[i-1]))
			phAt := phase[i-1] + frac*(phase[i]-phase[i-1])
			m.PhaseMargin = 180 + phAt
			for m.PhaseMargin > 360 {
				m.PhaseMargin -= 360
			}
		}
	}
	return m, nil
}

func logInterp(f0, f1, m0, m1, target float64) float64 {
	if m0 == m1 {
		return f0
	}
	frac := (m0 - target) / (m0 - m1)
	return math.Pow(10, math.Log10(f0)+frac*(math.Log10(f1)-math.Log10(f0)))
}

// acEntry is one nonzero capacitive position in the small-signal system,
// paired with the conductance sharing that position so the complex entry
// can be rewritten (not accumulated) at each frequency.
type acEntry struct {
	idx  int // flat index into the dense matrix
	g, c float64
}

// acSweep is the reusable (G + jωC) assembler shared by the AC and noise
// sweeps. The complex matrix is seeded with complex(G, 0) once; setFreq
// then rewrites only the sparse capacitive entries, so a sweep does no
// per-frequency matrix assembly and no allocation. Refactoring at each
// frequency point runs on the compiled circuit's symbolic analysis
// (bit-identical to the dense complex LU).
type acSweep struct {
	a       *la.CMatrix
	entries []acEntry
	lu      *la.CSparseLU
}

func newACSweep(cc *compiled, g, cap *la.Matrix) *acSweep {
	s := &acSweep{a: la.NewCMatrix(g.Rows, g.Cols), lu: la.NewCSparseLU(cc.sym)}
	for i, gv := range g.Data {
		s.a.Data[i] = complex(gv, 0)
	}
	for i, cv := range cap.Data {
		if cv != 0 {
			s.entries = append(s.entries, acEntry{i, g.Data[i], cv})
		}
	}
	return s
}

// setFreq updates the system matrix to G + jωC for angular frequency ω.
func (s *acSweep) setFreq(omega float64) {
	for i := range s.entries {
		e := &s.entries[i]
		s.a.Data[e.idx] = complex(e.g, omega*e.c)
	}
}

// AC performs a small-signal sweep about the operating point op.
func AC(c *netlist.Circuit, op *DCResult, opts ACOpts) (*ACResult, error) {
	cc, err := compile(c)
	if err != nil {
		return nil, err
	}
	if opts.FStart <= 0 || opts.FStop <= opts.FStart {
		return nil, fmt.Errorf("sim: bad AC range [%g, %g]", opts.FStart, opts.FStop)
	}
	if opts.PointsPerDecade <= 0 {
		opts.PointsPerDecade = 20
	}
	l := cc.layout
	n := l.Size
	// Frequency-independent (G) and capacitive (C) stamps assembled once;
	// the stimulus vector collects every source with an AC magnitude.
	g, cap, err := buildSmallSignal(cc, op, opts.SwitchPhase)
	if err != nil {
		return nil, err
	}
	b := make([]complex128, n)
	for _, e := range cc.circuit.Elements {
		switch e.Type {
		case netlist.ISource:
			if e.Src.ACMag != 0 {
				ph := e.Src.ACPhase * math.Pi / 180
				i0 := cmplx.Rect(e.Src.ACMag, ph)
				addCRHS(b, l.idx(e.Nodes[0]), -i0)
				addCRHS(b, l.idx(e.Nodes[1]), +i0)
			}
		case netlist.VSource:
			if e.Src.ACMag != 0 {
				ph := e.Src.ACPhase * math.Pi / 180
				b[l.BranchIndex[e.Name]] += cmplx.Rect(e.Src.ACMag, ph)
			}
		}
	}

	decades := math.Log10(opts.FStop / opts.FStart)
	nPts := int(decades*float64(opts.PointsPerDecade)) + 1
	if nPts < 2 {
		nPts = 2
	}
	res := &ACResult{Freqs: make([]float64, 0, nPts), V: map[string][]complex128{}}
	for name := range l.NodeIndex {
		res.V[name] = make([]complex128, nPts)
	}
	sys := newACSweep(cc, g, cap)
	x := make([]complex128, n)
	for k := 0; k < nPts; k++ {
		f := opts.FStart * math.Pow(10, decades*float64(k)/float64(nPts-1))
		res.Freqs = append(res.Freqs, f)
		sys.setFreq(2 * math.Pi * f)
		if err := sys.lu.NumericFactor(sys.a); err != nil {
			return nil, fmt.Errorf("sim: AC solve failed at %g Hz: %w", f, err)
		}
		sys.lu.SolveInto(x, b)
		for name, i := range l.NodeIndex {
			res.V[name][k] = x[i]
		}
	}
	return res, nil
}

func addCRHS(b []complex128, i int, v complex128) {
	if i >= 0 {
		b[i] += v
	}
}
