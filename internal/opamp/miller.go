// Package opamp generates the transistor-level operational amplifier of
// the MDAC residue stages: a classic two-stage Miller OTA (NMOS input
// pair, PMOS mirror load, PMOS common-source second stage, all bias
// currents derived from one reference through NMOS mirrors) — the one
// amplifier class the paper's MDACs use, with enough open-loop gain for a
// 13-bit front stage when properly sized.
//
// The package also provides the designer's analytic sizing equations: an
// initial sizing derived from the block spec (gm from GBW·Cc, currents
// from slew rate, pole placement for phase margin). The synthesis engine
// starts from this point and refines it — exactly the division of labour
// the paper's hybrid methodology prescribes.
package opamp

import (
	"fmt"
	"math"

	"pipesyn/internal/device"
	"pipesyn/internal/netlist"
	"pipesyn/internal/pdk"
)

// Amp is the design-variable vector of the two-stage OTA.
type Amp struct {
	W1, L1 float64 // input differential pair (NMOS), per device
	W3, L3 float64 // PMOS mirror load, per device
	W5, L5 float64 // PMOS second-stage common source
	KTail  float64 // tail current mirror ratio: Itail = KTail·IRef
	K2     float64 // second-stage sink ratio:   I2   = K2·IRef
	IRef   float64 // bias reference current, A
	CC     float64 // Miller compensation capacitor, F
	RZ     float64 // zero-nulling resistor, Ω
}

// Vector flattens the sizing for the optimizer; FromVector inverts it.
// All geometric quantities are optimized in log space by the caller.
func (s Amp) Vector() []float64 {
	return []float64{s.W1, s.L1, s.W3, s.L3, s.W5, s.L5, s.KTail, s.K2, s.IRef, s.CC, s.RZ}
}

// FromVector rebuilds a sizing from an optimizer vector.
func FromVector(v []float64) (Amp, error) {
	if len(v) != 11 {
		return Amp{}, fmt.Errorf("opamp: sizing vector needs 11 entries, got %d", len(v))
	}
	return Amp{
		W1: v[0], L1: v[1], W3: v[2], L3: v[3], W5: v[4], L5: v[5],
		KTail: v[6], K2: v[7], IRef: v[8], CC: v[9], RZ: v[10],
	}, nil
}

// Clamp bounds every variable to its manufacturable range.
func (s Amp) Clamp(p *pdk.Process) Amp {
	c := s
	c.W1, c.L1 = p.ClampW(s.W1), p.ClampL(s.L1)
	c.W3, c.L3 = p.ClampW(s.W3), p.ClampL(s.L3)
	c.W5, c.L5 = p.ClampW(s.W5), p.ClampL(s.L5)
	c.KTail = clamp(s.KTail, 0.2, 100)
	c.K2 = clamp(s.K2, 0.2, 200)
	c.IRef = clamp(s.IRef, 1e-6, 5e-3)
	c.CC = p.ClampC(s.CC)
	c.RZ = clamp(s.RZ, 1, 1e6)
	return c
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Ports of the generated amplifier.
const (
	PortInP = "inp"
	PortInN = "inn"
	PortOut = "out"
	PortVDD = "vdd"
)

// Fixed diode-reference geometry: the mirror ratios, not the diode, are
// the design variables.
const (
	refW = 5e-6
	refL = 1e-6
)

// Build appends the amplifier elements to the circuit, on the ports
// PortInP, PortInN, PortOut and PortVDD. Internal nodes and element names
// are prefixed to allow several amps per netlist. The caller provides
// supply and input-bias sources.
func (s Amp) Build(c *netlist.Circuit, p *pdk.Process, prefix string) {
	n := func(base string) string { return prefix + base }
	mos := func(name, d, g, src, b, model string, w, l float64) *netlist.Element {
		return &netlist.Element{
			Name: prefix + name, Type: netlist.MOS,
			Nodes: []string{d, g, src, b}, Model: model,
			Params: map[string]float64{"w": w, "l": l},
		}
	}
	// Input pair.
	c.MustAdd(mos("m1", n("x1"), PortInN, n("tail"), "0", "nch", s.W1, s.L1))
	c.MustAdd(mos("m2", n("x2"), PortInP, n("tail"), "0", "nch", s.W1, s.L1))
	// PMOS mirror load (diode on x1).
	c.MustAdd(mos("m3", n("x1"), n("x1"), PortVDD, PortVDD, "pch", s.W3, s.L3))
	c.MustAdd(mos("m4", n("x2"), n("x1"), PortVDD, PortVDD, "pch", s.W3, s.L3))
	// Second stage: PMOS common source from x2, NMOS sink.
	c.MustAdd(mos("m5", PortOut, n("x2"), PortVDD, PortVDD, "pch", s.W5, s.L5))
	c.MustAdd(mos("m6", PortOut, n("bn"), "0", "0", "nch", s.K2*refW, refL))
	// Bias chain: reference diode + tail mirror.
	c.MustAdd(mos("m7", n("bn"), n("bn"), "0", "0", "nch", refW, refL))
	c.MustAdd(mos("m8", n("tail"), n("bn"), "0", "0", "nch", s.KTail*refW, refL))
	c.MustAdd(&netlist.Element{
		Name: prefix + "iref", Type: netlist.ISource,
		Nodes: []string{PortVDD, n("bn")},
		Src:   &netlist.Source{DC: s.IRef},
	})
	// Miller compensation with zero-nulling resistor: x2 → rz → cc → out.
	c.MustAdd(&netlist.Element{
		Name: prefix + "rz", Type: netlist.Resistor,
		Nodes: []string{n("x2"), n("z")}, Value: s.RZ,
	})
	c.MustAdd(&netlist.Element{
		Name: prefix + "cc", Type: netlist.Capacitor,
		Nodes: []string{n("z"), PortOut}, Value: s.CC,
	})
}

// BlockSpec is the subset of an MDAC spec the amplifier cares about.
type BlockSpec struct {
	GBW   float64 // amplifier unity-gain bandwidth target, Hz
	SR    float64 // slew rate target, V/s
	CLoad float64 // total load at the output during hold, F
	CFeed float64 // feedback capacitor (adds to the load through the network)
	Gain  float64 // open-loop DC gain target, V/V
	Swing float64 // output swing (peak) around mid-supply, V
}

// InitialSizing computes the designer's-equation starting point:
//
//	Cc   ≈ 0.4·CL          (Miller ratio for PM ≈ 60–70°)
//	gm1  = 2π·GBW·Cc
//	Itail = max(gm1·Vov, SR·Cc)
//	gm5  = 2.2·2π·GBW·CL   (second pole beyond crossover)
//	Rz   = 1/gm5
//
// with W/L from the square law at Vov ≈ 0.2 V.
func InitialSizing(p *pdk.Process, spec BlockSpec) Amp {
	const vov = 0.2
	cl := spec.CLoad + spec.CFeed
	cc := 0.4 * cl
	if cc < 2*p.CapMin {
		cc = 2 * p.CapMin
	}
	gm1 := 2 * math.Pi * spec.GBW * cc
	itail := gm1 * vov // two branches at Itail/2 each: gm = Itail/Vov
	if sr := spec.SR * cc; sr > itail {
		itail = sr
	}
	gm5 := 2.2 * 2 * math.Pi * spec.GBW * cl
	i2 := gm5 * vov / 2

	iref := itail / 4 // tail ratio 4 keeps the reference branch cheap
	if iref < 2e-6 {
		iref = 2e-6
	}
	wl := func(gm, id, kp float64) float64 { return gm * gm / (2 * kp * id) }
	l1 := 0.5e-6 // moderate length for gain without killing speed
	w1 := wl(gm1, itail/2, p.NMOS.KP) * l1
	l3 := 0.5e-6
	gm3 := gm1 / 2 // mirror gm is uncritical; size for matching headroom
	w3 := wl(gm3, itail/2, p.PMOS.KP) * l3
	l5 := 0.35e-6
	w5 := wl(gm5, i2, p.PMOS.KP) * l5

	s := Amp{
		W1: w1, L1: l1,
		W3: w3, L3: l3,
		W5: w5, L5: l5,
		KTail: itail / iref,
		K2:    i2 / iref,
		IRef:  iref,
		CC:    cc,
		RZ:    1 / gm5,
	}
	return s.Clamp(p)
}

// Equations evaluates the textbook closed-form performance of the sizing —
// the pure "equation-based" evaluation path that the paper contrasts with
// hybrid evaluation. No simulation is involved.
type Equations struct {
	GM1, GM5 float64
	A0       float64 // open-loop DC gain
	GBW      float64 // gm1/(2π·Cc)
	P2       float64 // second pole gm5/(2π·CL)
	PM       float64 // phase margin estimate, degrees
	SR       float64 // min(Itail/Cc, I2/CL)
	Power    float64 // VDD·(IRef+Itail+I2)
	SwingLo  float64
	SwingHi  float64
}

// Analyze computes the closed-form metrics for a sizing driving cl farads.
func (s Amp) Analyze(p *pdk.Process, cl float64) Equations {
	const vov = 0.2
	itail := s.KTail * s.IRef
	i2 := s.K2 * s.IRef
	gm1 := math.Sqrt(2 * p.NMOS.KP * (s.W1 / s.L1) * (itail / 2))
	gm5 := math.Sqrt(2 * p.PMOS.KP * (s.W5 / s.L5) * i2)
	// Output conductances with the λ·L scaling the device model uses.
	lam := func(base, l float64) float64 { return base * 0.25e-6 / l }
	gds2 := lam(p.NMOS.Lambda, s.L1) * itail / 2
	gds4 := lam(p.PMOS.Lambda, s.L3) * itail / 2
	gds5 := lam(p.PMOS.Lambda, s.L5) * i2
	gds6 := lam(p.NMOS.Lambda, refL) * i2
	a1 := gm1 / (gds2 + gds4)
	a2 := gm5 / (gds5 + gds6)
	e := Equations{GM1: gm1, GM5: gm5}
	e.A0 = a1 * a2
	e.GBW = gm1 / (2 * math.Pi * s.CC)
	e.P2 = gm5 / (2 * math.Pi * cl)
	e.PM = 90 - math.Atan(e.GBW/e.P2)*180/math.Pi
	srInt := itail / s.CC
	srOut := i2 / cl
	e.SR = math.Min(srInt, srOut)
	e.Power = p.VDD * (s.IRef + itail + i2)
	e.SwingLo = vov         // M6 needs Vov to stay saturated
	e.SwingHi = p.VDD - vov // M5 likewise
	return e
}

// SwingWindow extracts the output range with every device saturated from
// a DC operating point (mos keyed by prefixed element name): the NMOS
// sink m6 sets the floor, the PMOS common-source m5 the ceiling.
func (s Amp) SwingWindow(mos map[string]device.OP, prefix string, vdd float64) (lo, hi float64) {
	return mos[prefix+"m6"].VOV, vdd - mos[prefix+"m5"].VOV
}
