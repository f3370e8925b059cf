package opamp

import (
	"math"
	"testing"

	"pipesyn/internal/device"
	"pipesyn/internal/netlist"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
)

func testSpec() BlockSpec {
	return BlockSpec{
		GBW:   400e6,
		SR:    200e6, // 200 V/µs
		CLoad: 1e-12,
		CFeed: 0.3e-12,
		Gain:  50000,
		Swing: 0.5,
	}
}

// Build the amp in unity-gain feedback (out tied to inn through a large
// resistor for DC) and verify it biases with every device saturated.
func unityTestbench(t *testing.T, p *pdk.Process, s Amp) *netlist.Circuit {
	t.Helper()
	c := netlist.New("unity follower")
	p.Attach(c)
	c.MustAdd(&netlist.Element{Name: "vdd", Type: netlist.VSource,
		Nodes: []string{"vdd", "0"}, Src: &netlist.Source{DC: p.VDD}})
	c.MustAdd(&netlist.Element{Name: "vin", Type: netlist.VSource,
		Nodes: []string{"inp", "0"}, Src: &netlist.Source{DC: 1.4, ACMag: 1}})
	s.Build(c, p, "a.")
	c.MustAdd(&netlist.Element{Name: "rfb", Type: netlist.Resistor,
		Nodes: []string{"out", "inn"}, Value: 1}) // hard unity feedback
	c.MustAdd(&netlist.Element{Name: "cl", Type: netlist.Capacitor,
		Nodes: []string{"out", "0"}, Value: 1e-12})
	return c
}

func TestInitialSizingBiases(t *testing.T) {
	p := pdk.TSMC025()
	s := InitialSizing(p, testSpec())
	c := unityTestbench(t, p, s)
	op, err := sim.OP(c, sim.DCOpts{})
	if err != nil {
		t.Fatalf("amp failed to bias: %v", err)
	}
	vout := op.V["out"]
	// Unity follower: output tracks the 1.4 V input closely.
	if math.Abs(vout-1.4) > 0.1 {
		t.Fatalf("follower output = %g, want ≈1.4", vout)
	}
	for _, name := range []string{"a.m1", "a.m2", "a.m3", "a.m4", "a.m5", "a.m6", "a.m7", "a.m8"} {
		mop, ok := op.MOS[name]
		if !ok {
			t.Fatalf("missing device %s", name)
		}
		if mop.Region != device.Saturation {
			t.Errorf("%s in %v, want saturation (ID=%g VGS=%g VDS=%g)",
				name, mop.Region, mop.ID, mop.VGS, mop.VDS)
		}
	}
	// Power in a plausible envelope for these specs (sub-50 mW).
	pw := op.SupplyPower(c)
	if pw <= 0 || pw > 50e-3 {
		t.Fatalf("supply power = %g W", pw)
	}
}

func TestInitialSizingMeetsEquationTargets(t *testing.T) {
	p := pdk.TSMC025()
	spec := testSpec()
	s := InitialSizing(p, spec)
	eq := s.Analyze(p, spec.CLoad+spec.CFeed)
	// The designer equations should land near their own targets.
	if eq.GBW < 0.5*spec.GBW {
		t.Fatalf("equation GBW %g below half the %g target", eq.GBW, spec.GBW)
	}
	if eq.PM < 45 {
		t.Fatalf("equation PM %g too low", eq.PM)
	}
	if eq.SR < 0.3*spec.SR {
		t.Fatalf("equation SR %g far below target %g", eq.SR, spec.SR)
	}
	if eq.A0 < 1000 {
		t.Fatalf("two-stage gain %g implausibly low", eq.A0)
	}
	if eq.Power <= 0 {
		t.Fatal("non-positive power")
	}
}

func TestACGainOfBiasedAmp(t *testing.T) {
	// Drive inp with AC in the unity bench and verify low-frequency gain
	// is ≈ 1 (follower) and rolls off beyond the loop bandwidth.
	p := pdk.TSMC025()
	s := InitialSizing(p, testSpec())
	c := unityTestbench(t, p, s)
	op, err := sim.OP(c, sim.DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := sim.AC(c, op, sim.ACOpts{FStart: 1e3, FStop: 100e9, PointsPerDecade: 10})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ac.Characterize("out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.DCGainDB) > 0.2 {
		t.Fatalf("follower gain = %g dB, want ≈0", m.DCGainDB)
	}
	if m.F3DBHz < 50e6 {
		t.Fatalf("follower bandwidth = %g, implausibly low", m.F3DBHz)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	p := pdk.TSMC025()
	s := InitialSizing(p, testSpec())
	v := s.Vector()
	if len(v) != 11 {
		t.Fatalf("vector has %d entries, want 11", len(v))
	}
	s2, err := FromVector(v)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, s2)
	}
	if _, err := FromVector(v[:5]); err == nil {
		t.Fatal("expected length error")
	}
}

func TestClamp(t *testing.T) {
	p := pdk.TSMC025()
	s := Amp{W1: 1, L1: 0, W3: -1, L3: 99, W5: 1e-6, L5: 1e-6,
		KTail: 1e6, K2: 0, IRef: 1, CC: 1, RZ: -5}
	c := s.Clamp(p)
	if c.W1 != p.WMax || c.L1 != p.LMin || c.W3 != p.WMin || c.L3 != p.LMax {
		t.Fatalf("geometry clamp failed: %+v", c)
	}
	if c.KTail != 100 || c.K2 != 0.2 || c.IRef != 5e-3 || c.CC != p.CapMax || c.RZ != 1 {
		t.Fatalf("electrical clamp failed: %+v", c)
	}
}

// Slewing: a large differential step at the follower input drives the
// output at a finite ramp rate ≈ Itail/Cc.
func TestSlewRateObservable(t *testing.T) {
	p := pdk.TSMC025()
	s := InitialSizing(p, testSpec())
	c := netlist.New("slew bench")
	p.Attach(c)
	c.MustAdd(&netlist.Element{Name: "vdd", Type: netlist.VSource,
		Nodes: []string{"vdd", "0"}, Src: &netlist.Source{DC: p.VDD}})
	src := &netlist.Source{DC: 1.2, Kind: netlist.SrcPulse}
	src.Pulse.V1, src.Pulse.V2 = 1.2, 1.9
	src.Pulse.TD, src.Pulse.TR, src.Pulse.TF = 1e-9, 50e-12, 50e-12
	src.Pulse.PW, src.Pulse.PER = 1, 2
	c.MustAdd(&netlist.Element{Name: "vin", Type: netlist.VSource,
		Nodes: []string{"inp", "0"}, Src: src})
	s.Build(c, p, "a.")
	c.MustAdd(&netlist.Element{Name: "rfb", Type: netlist.Resistor,
		Nodes: []string{"out", "inn"}, Value: 1})
	c.MustAdd(&netlist.Element{Name: "cl", Type: netlist.Capacitor,
		Nodes: []string{"out", "0"}, Value: 1e-12})
	tr, err := sim.Tran(c, sim.TranOpts{TStop: 20e-9, TStep: 20e-12})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.V["out"] // sample k lies at k·20 ps
	v0, vEnd := w[45], w[950]
	if math.Abs(v0-1.2) > 0.1 {
		t.Fatalf("initial level %g", v0)
	}
	if math.Abs(vEnd-1.9) > 0.1 {
		t.Fatalf("final level %g; slewing never completed", vEnd)
	}
}
