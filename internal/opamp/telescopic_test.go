package opamp

import (
	"math"
	"testing"

	"pipesyn/internal/device"
	"pipesyn/internal/netlist"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
)

func teleSpec() BlockSpec {
	// A relaxed, late-stage-like block: modest bandwidth and gain.
	return BlockSpec{
		GBW:   150e6,
		SR:    100e6,
		CLoad: 0.2e-12,
		CFeed: 0.1e-12,
		Gain:  500,
		Swing: 0.4,
	}
}

func teleBench(t *testing.T, p *pdk.Process, s TelescopicSizing) *netlist.Circuit {
	t.Helper()
	c := netlist.New("telescopic unity bench")
	p.Attach(c)
	c.MustAdd(&netlist.Element{Name: "vdd", Type: netlist.VSource,
		Nodes: []string{"vdd", "0"}, Src: &netlist.Source{DC: p.VDD}})
	c.MustAdd(&netlist.Element{Name: "vin", Type: netlist.VSource,
		Nodes: []string{"inp", "0"}, Src: &netlist.Source{DC: 1.4, ACMag: 1}})
	BuildTelescopic(c, p, s, "a.")
	c.MustAdd(&netlist.Element{Name: "rfb", Type: netlist.Resistor,
		Nodes: []string{"out", "inn"}, Value: 1})
	c.MustAdd(&netlist.Element{Name: "cl", Type: netlist.Capacitor,
		Nodes: []string{"out", "0"}, Value: 0.3e-12})
	return c
}

func TestTelescopicBiases(t *testing.T) {
	p := pdk.TSMC025()
	s := InitialTelescopic(p, teleSpec())
	c := teleBench(t, p, s)
	op, err := sim.OP(c, sim.DCOpts{})
	if err != nil {
		t.Fatalf("telescopic failed to bias: %v", err)
	}
	vout := op.V["out"]
	if math.Abs(vout-1.4) > 0.1 {
		t.Fatalf("follower output = %g, want ≈1.4", vout)
	}
	for _, name := range []string{"a.m1", "a.m2", "a.m3", "a.m4", "a.m5", "a.m6", "a.m7", "a.m8"} {
		mop, ok := op.MOS[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if mop.Region != device.Saturation {
			t.Errorf("%s in %v (VGS=%.3f VDS=%.3f)", name, mop.Region, mop.VGS, mop.VDS)
		}
	}
}

func TestTelescopicGainAndBandwidth(t *testing.T) {
	p := pdk.TSMC025()
	s := InitialTelescopic(p, teleSpec())
	// Open-loop-ish AC check through the closed-loop OP: the unity
	// follower must track to well under 1% (gain ≫ 100) and keep a wide
	// bandwidth (single-stage).
	c := teleBench(t, p, s)
	op, err := sim.OP(c, sim.DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := sim.AC(c, op, sim.ACOpts{FStart: 1e4, FStop: 30e9, PointsPerDecade: 10})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ac.Characterize("out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.DCGainDB) > 0.2 {
		t.Fatalf("follower error %g dB implies open-loop gain below ~40 dB", m.DCGainDB)
	}
	if m.F3DBHz < 50e6 {
		t.Fatalf("bandwidth %g too low", m.F3DBHz)
	}
}

func TestTelescopicEquations(t *testing.T) {
	p := pdk.TSMC025()
	spec := teleSpec()
	s := InitialTelescopic(p, spec)
	eq := AnalyzeTelescopic(p, s, spec.CLoad+spec.CFeed)
	if eq.A0 < 300 {
		t.Fatalf("telescopic gain %g implausibly low", eq.A0)
	}
	if eq.GBW < 0.5*spec.GBW {
		t.Fatalf("GBW %g far below target %g", eq.GBW, spec.GBW)
	}
	if eq.PM < 45 {
		t.Fatalf("PM %g", eq.PM)
	}
	if eq.Power <= 0 {
		t.Fatal("no power")
	}
	// The headline of the topology ablation: for the same relaxed block,
	// a single-stage telescopic burns less than the two-stage Miller.
	miller := InitialSizing(p, spec)
	meq := Analyze(p, miller, spec.CLoad+spec.CFeed)
	if eq.Power >= meq.Power {
		t.Fatalf("telescopic %g W should undercut Miller %g W on a relaxed block",
			eq.Power, meq.Power)
	}
}

func TestTelescopicVectorRoundTrip(t *testing.T) {
	p := pdk.TSMC025()
	s := InitialTelescopic(p, teleSpec())
	v := s.Vector()
	if len(v) != 9 {
		t.Fatalf("vector has %d entries, want 9", len(v))
	}
	s2, err := TeleFromVector(v)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s {
		t.Fatalf("round trip: %+v vs %+v", s, s2)
	}
	if _, err := TeleFromVector(v[:3]); err == nil {
		t.Fatal("expected length error")
	}
}

func TestTelescopicClamp(t *testing.T) {
	p := pdk.TSMC025()
	s := TelescopicSizing{W1: 1, L1: 0, W3: -1, L3: 99, W5: 1e-6, L5: 1e-6,
		KTail: 1e9, IRef: 1, VBN: 9}
	c := s.Clamp(p)
	if c.W1 != p.WMax || c.L1 != p.LMin || c.KTail != 100 || c.IRef != 5e-3 {
		t.Fatalf("clamp failed: %+v", c)
	}
	if c.VBN > p.VDD-0.3+1e-12 {
		t.Fatalf("VBN unclamped: %g", c.VBN)
	}
}
