package pdk

import (
	"math"
	"testing"

	"pipesyn/internal/netlist"
)

func TestDefaultProcessValid(t *testing.T) {
	p := TSMC025()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.VDD != 3.3 || p.LMin != 0.25e-6 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

func TestKTOverC(t *testing.T) {
	p := TSMC025()
	// kT/C for 1 pF at 300 K ≈ (64.3 µV)².
	v := math.Sqrt(p.KTOverC(1e-12))
	if math.Abs(v-64.3e-6)/64.3e-6 > 0.01 {
		t.Fatalf("sqrt(kT/C) = %g, want ≈64.3 µV", v)
	}
}

func TestNoiseCapFor(t *testing.T) {
	p := TSMC025()
	budget := p.KTOverC(2e-12) // noise of a 2 pF cap
	c := p.NoiseCapFor(budget)
	if math.Abs(c-2e-12)/2e-12 > 1e-9 {
		t.Fatalf("NoiseCapFor round-trip = %g, want 2p", c)
	}
	// Tiny budgets clamp at CapMin; non-positive budgets mean "don't care".
	if c := p.NoiseCapFor(1); c != p.CapMin {
		t.Fatalf("loose budget should clamp to CapMin, got %g", c)
	}
	if c := p.NoiseCapFor(0); c != p.CapMax {
		t.Fatalf("zero budget should return CapMax, got %g", c)
	}
}

func TestClamps(t *testing.T) {
	p := TSMC025()
	if w := p.ClampW(0); w != p.WMin {
		t.Fatalf("ClampW(0) = %g", w)
	}
	if w := p.ClampW(1); w != p.WMax {
		t.Fatalf("ClampW(1m) = %g", w)
	}
	if l := p.ClampL(0.3e-6); l != 0.3e-6 {
		t.Fatalf("in-range L clamped: %g", l)
	}
	if c := p.ClampC(1); c != p.CapMax {
		t.Fatalf("ClampC huge = %g", c)
	}
}

func TestModelCardsAttach(t *testing.T) {
	p := TSMC025()
	c := netlist.New("test")
	p.Attach(c)
	c.MustAdd(&netlist.Element{
		Name: "m1", Type: netlist.MOS,
		Nodes:  []string{"d", "g", "s", "0"},
		Model:  "nch",
		Params: map[string]float64{"w": 1e-6, "l": 0.25e-6},
	})
	m, err := c.ModelFor(c.Elements[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.Param("vto", 0) != p.NMOS.VTO {
		t.Fatalf("vto = %g", m.Param("vto", 0))
	}
	// All three cards present.
	for _, name := range []string{"nch", "pch", "swideal"} {
		found := false
		for _, card := range p.ModelCards() {
			if card.Name == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing model card %s", name)
		}
	}
}

func TestValidateCatchesBrokenKits(t *testing.T) {
	break1 := TSMC025()
	break1.VDD = 0
	break2 := TSMC025()
	break2.PMOS.VTO = 0.3
	break3 := TSMC025()
	break3.CapMax = break3.CapMin / 2
	break4 := TSMC025()
	break4.NMOS.VTO = -0.1
	break5 := TSMC025()
	break5.LMax = break5.LMin / 10
	break6 := TSMC025()
	break6.Temp = 0
	for i, p := range []*Process{break1, break2, break3, break4, break5, break6} {
		if err := p.Validate(); err == nil {
			t.Errorf("broken kit %d passed validation", i+1)
		}
	}
}
