package opamp

import (
	"fmt"
	"math"

	"pipesyn/internal/netlist"
	"pipesyn/internal/pdk"
)

// TelescopicSizing is the design-variable vector of a single-stage
// telescopic cascode OTA with a simple PMOS mirror load: NMOS input pair,
// NMOS cascodes, long-channel PMOS mirror, mirrored tail. One high-
// impedance node means no Miller compensation — the load capacitor is the
// compensation — so for the relaxed later pipeline stages it reaches the
// same bandwidth at a fraction of the two-stage OTA's current. Its gain
// tops out near gm1·ro(PMOS), which is why the 13-bit front stage still
// needs the two-stage Miller amplifier: the ablation benchmark quantifies
// exactly this trade.
type TelescopicSizing struct {
	W1, L1 float64 // input pair
	W3, L3 float64 // NMOS cascodes
	W5, L5 float64 // PMOS mirror (long channel for output resistance)
	KTail  float64 // tail ratio: Itail = KTail·IRef
	IRef   float64
	VBN    float64 // cascode gate bias
}

// Vector flattens the sizing for an optimizer.
func (s TelescopicSizing) Vector() []float64 {
	return []float64{s.W1, s.L1, s.W3, s.L3, s.W5, s.L5, s.KTail, s.IRef, s.VBN}
}

// TeleFromVector rebuilds a telescopic sizing from a vector.
func TeleFromVector(v []float64) (TelescopicSizing, error) {
	if len(v) != 9 {
		return TelescopicSizing{}, fmt.Errorf("opamp: telescopic vector needs 9 entries, got %d", len(v))
	}
	return TelescopicSizing{
		W1: v[0], L1: v[1], W3: v[2], L3: v[3], W5: v[4], L5: v[5],
		KTail: v[6], IRef: v[7], VBN: v[8],
	}, nil
}

// Clamp bounds the telescopic variables.
func (s TelescopicSizing) Clamp(p *pdk.Process) TelescopicSizing {
	c := s
	c.W1, c.L1 = p.ClampW(s.W1), p.ClampL(s.L1)
	c.W3, c.L3 = p.ClampW(s.W3), p.ClampL(s.L3)
	c.W5, c.L5 = p.ClampW(s.W5), p.ClampL(s.L5)
	c.KTail = clamp(s.KTail, 0.2, 100)
	c.IRef = clamp(s.IRef, 1e-6, 5e-3)
	c.VBN = clamp(s.VBN, 0.6, p.VDD-0.3)
	return c
}

// BuildTelescopic appends the telescopic OTA to a circuit with the same
// port convention as Build (inp, inn, out, vdd).
func BuildTelescopic(c *netlist.Circuit, p *pdk.Process, s TelescopicSizing, prefix string) {
	n := func(base string) string { return prefix + base }
	mos := func(name, d, g, src, b, model string, w, l float64) *netlist.Element {
		return &netlist.Element{
			Name: prefix + name, Type: netlist.MOS,
			Nodes: []string{d, g, src, b}, Model: model,
			Params: map[string]float64{"w": w, "l": l},
		}
	}
	// Input pair.
	c.MustAdd(mos("m1", n("d1"), PortInN, n("tail"), "0", "nch", s.W1, s.L1))
	c.MustAdd(mos("m2", n("d2"), PortInP, n("tail"), "0", "nch", s.W1, s.L1))
	// NMOS cascodes with a shared gate bias. The inverting-input branch
	// (m1/m3) drives the output directly; the mirror diode hangs on the
	// inp branch so that out falls when inn rises — the polarity negative
	// feedback needs.
	c.MustAdd(mos("m3", PortOut, n("vbn"), n("d1"), "0", "nch", s.W3, s.L3))
	c.MustAdd(mos("m4", n("x1"), n("vbn"), n("d2"), "0", "nch", s.W3, s.L3))
	// PMOS mirror load, diode on x1.
	c.MustAdd(mos("m5", n("x1"), n("x1"), PortVDD, PortVDD, "pch", s.W5, s.L5))
	c.MustAdd(mos("m6", PortOut, n("x1"), PortVDD, PortVDD, "pch", s.W5, s.L5))
	// Bias chain: reference diode + tail mirror (same style as Build).
	c.MustAdd(mos("m7", n("bn"), n("bn"), "0", "0", "nch", refW, refL))
	c.MustAdd(mos("m8", n("tail"), n("bn"), "0", "0", "nch", s.KTail*refW, refL))
	c.MustAdd(&netlist.Element{
		Name: prefix + "iref", Type: netlist.ISource,
		Nodes: []string{PortVDD, n("bn")},
		Src:   &netlist.Source{DC: s.IRef},
	})
	c.MustAdd(&netlist.Element{
		Name: prefix + "vbn", Type: netlist.VSource,
		Nodes: []string{n("vbn"), "0"},
		Src:   &netlist.Source{DC: s.VBN},
	})
}

// InitialTelescopic derives the designer-equation starting point for the
// telescopic OTA: gm1 from GBW·CL directly (the load is the compensation).
func InitialTelescopic(p *pdk.Process, spec BlockSpec) TelescopicSizing {
	const vov = 0.2
	cl := spec.CLoad + spec.CFeed
	gm1 := 2 * math.Pi * spec.GBW * cl
	itail := gm1 * vov
	if sr := spec.SR * cl; sr > itail {
		itail = sr
	}
	iref := itail / 4
	if iref < 2e-6 {
		iref = 2e-6
	}
	wl := func(gm, id, kp float64) float64 { return gm * gm / (2 * kp * id) }
	l1 := 0.35e-6
	w1 := wl(gm1, itail/2, p.NMOS.KP) * l1
	// Cascodes sized like the pair; mirror long for output resistance.
	l5 := 2e-6
	gm5 := gm1 / 2
	w5 := wl(gm5, itail/2, p.PMOS.KP) * l5
	s := TelescopicSizing{
		W1: w1, L1: l1,
		W3: w1, L3: l1,
		W5: w5, L5: l5,
		KTail: itail / iref,
		IRef:  iref,
		// Cascode gate: high enough that the pair's drains sit a few
		// hundred millivolts above the tail node (body effect raises the
		// thresholds of the stacked devices).
		VBN: 1.75,
	}
	return s.Clamp(p)
}

// AnalyzeTelescopic evaluates the closed-form metrics of the sizing.
func AnalyzeTelescopic(p *pdk.Process, s TelescopicSizing, cl float64) Equations {
	const vov = 0.2
	itail := s.KTail * s.IRef
	id := itail / 2
	gm1 := math.Sqrt(2 * p.NMOS.KP * (s.W1 / s.L1) * id)
	gm3 := math.Sqrt(2 * p.NMOS.KP * (s.W3 / s.L3) * id)
	lam := func(base, l float64) float64 { return base * 0.25e-6 / l }
	gds2 := lam(p.NMOS.Lambda, s.L1) * id
	gds4 := lam(p.NMOS.Lambda, s.L3) * id
	gds6 := lam(p.PMOS.Lambda, s.L5) * id
	// Cascode boosts the NMOS side: Rn ≈ gm3/(gds2·gds4); the simple
	// mirror's ro dominates the output node.
	gn := gds2 * gds4 / gm3
	rout := 1 / (gn + gds6)
	e := Equations{GM1: gm1, GM5: gm3}
	e.A0 = gm1 * rout
	e.GBW = gm1 / (2 * math.Pi * cl)
	// Non-dominant pole at the cascode source node: gm3/Cpar with
	// Cpar ≈ Cgs3 + Cdb1.
	cpar := (2.0/3.0)*p.NMOS.Cox*s.W3*s.L3 + p.NMOS.CJW*s.W1
	e.P2 = gm3 / (2 * math.Pi * cpar)
	e.PM = 90 - math.Atan(e.GBW/e.P2)*180/math.Pi
	e.SR = itail / cl
	e.Power = p.VDD * (s.IRef + itail)
	// Swing: the telescopic stacks four devices below VDD.
	e.SwingLo = s.VBN - p.NMOS.VTO + vov // cascode source + vov
	e.SwingHi = p.VDD - 2*vov
	return e
}
