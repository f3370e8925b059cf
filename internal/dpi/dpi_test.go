package dpi

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"pipesyn/internal/expr"
	"pipesyn/internal/netlist"
	"pipesyn/internal/sim"
)

// evalAt evaluates the transfer function h at the complex frequency s
// with every other variable bound to its real value in env.
func evalAt(t *testing.T, h expr.Expr, env map[string]float64, s complex128) complex128 {
	t.Helper()
	cenv := make(map[string]complex128, len(env)+1)
	for k, v := range env {
		cenv[k] = complex(v, 0)
	}
	cenv["s"] = s
	v, err := h.EvalC(cenv)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func parse(t *testing.T, deck string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRCLowpassSymbolic(t *testing.T) {
	c := parse(t, `* rc
V1 in 0 DC 0 AC 1
R1 in out 10k
C1 out 0 1p
`)
	a, err := Build(c, Options{IncludeCaps: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.TransferFunction("out")
	if err != nil {
		t.Fatal(err)
	}
	// Symbolic vars must be exactly {c_c1, g_r1, s}.
	vars := h.Vars()
	want := map[string]bool{"c_c1": true, "g_r1": true, "s": true}
	for _, v := range vars {
		if !want[v] {
			t.Fatalf("unexpected symbol %q in %s", v, h)
		}
	}
	op, err := sim.OP(c, sim.DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Env(c, op, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := evalAt(t, h, env, 0); cmplx.Abs(g-1) > 1e-9 {
		t.Fatalf("DC gain = %v, want 1", g)
	}
	// A single pole at −1/RC puts H(j/RC) at exactly 1/(1+j).
	rc := 10e3 * 1e-12
	wantH := 1 / complex(1, 1)
	if got := evalAt(t, h, env, complex(0, 1/rc)); cmplx.Abs(got-wantH) > 1e-9 {
		t.Fatalf("H(j/RC) = %v, want %v", got, wantH)
	}
}

func TestVoltageDividerSymbolic(t *testing.T) {
	c := parse(t, `* divider
V1 in 0 AC 1
R1 in out 1k
R2 out 0 3k
`)
	a, err := Build(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.TransferFunction("out")
	if err != nil {
		t.Fatal(err)
	}
	got := evalAt(t, h, map[string]float64{"g_r1": 1e-3, "g_r2": 1.0 / 3e3}, 0)
	if cmplx.Abs(got-0.75) > 1e-12 {
		t.Fatalf("H = %v, want 0.75", got)
	}
}

// The headline consistency check of the hybrid method: the DPI/SFG
// symbolic transfer function, bound with DC-extracted small-signal values,
// must match a full AC simulation of the same common-source amplifier
// across the band.
func TestCommonSourceMatchesACSim(t *testing.T) {
	deck := `* cs amp
V1 vdd 0 DC 3.3
VG in 0 DC 0.9 AC 1
RD vdd d 2k
M1 d in 0 0 nch W=20u L=0.5u
CL d 0 100f
.model nch nmos (vto=0.45 kp=180u lambda=0.05 gamma=0)
`
	c := parse(t, deck)
	op, err := sim.OP(c, sim.DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(c, Options{IncludeCaps: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.TransferFunction("d")
	if err != nil {
		t.Fatal(err)
	}
	env, err := Env(c, op, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := sim.AC(c, op, sim.ACOpts{FStart: 1e3, FStop: 10e9, PointsPerDecade: 10})
	if err != nil {
		t.Fatal(err)
	}
	hv, _ := ac.Transfer("d")
	for i, f := range ac.Freqs {
		want := hv[i]
		got := evalAt(t, h, env, complex(0, 2*math.Pi*f))
		if cmplx.Abs(got-want) > 0.02*(1+cmplx.Abs(want)) {
			t.Fatalf("hybrid TF diverges from AC sim at %g Hz: %v vs %v", f, got, want)
		}
	}
	// Sanity: inverting gain gm·(RD∥ro) at low frequency.
	mos := op.MOS["m1"]
	wantGain := -mos.GM * (2e3 * (1 / mos.GDS) / (2e3 + 1/mos.GDS))
	if g := evalAt(t, h, env, 0); cmplx.Abs(g-complex(wantGain, 0)) > 0.01*math.Abs(wantGain) {
		t.Fatalf("DC gain = %v, want %g", g, wantGain)
	}
}

func TestSupplyHandling(t *testing.T) {
	// VDD with no AC magnitude must be treated as AC ground, so RD shows
	// up as a load to ground, not a feed-through path.
	c := parse(t, `* supply grounding
V1 vdd 0 DC 3.3
VIN in 0 AC 1
R1 in out 1k
R2 vdd out 1k
`)
	a, err := Build(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.TransferFunction("out")
	if err != nil {
		t.Fatal(err)
	}
	got := evalAt(t, h, map[string]float64{"g_r1": 1e-3, "g_r2": 1e-3}, 0)
	if cmplx.Abs(got-0.5) > 1e-12 {
		t.Fatalf("H = %v, want 0.5", got)
	}
}

func TestSwitchEnv(t *testing.T) {
	c := parse(t, `* switch path
VIN in 0 AC 1
S1 in out swm phase=1
R1 out 0 1k
.model swm sw (ron=1k roff=1e12)
`)
	a, err := Build(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.TransferFunction("out")
	if err != nil {
		t.Fatal(err)
	}
	op, err := sim.OP(c, sim.DCOpts{SwitchPhase: 1})
	if err != nil {
		t.Fatal(err)
	}
	envOn, _ := Env(c, op, Options{SwitchPhase: 1})
	envOff, _ := Env(c, op, Options{SwitchPhase: 2})
	on := evalAt(t, h, envOn, 0)
	off := evalAt(t, h, envOff, 0)
	if cmplx.Abs(on-0.5) > 1e-9 || cmplx.Abs(off) > 1e-6 {
		t.Fatalf("switch transfer on=%v off=%v", on, off)
	}
}

func TestBuildErrors(t *testing.T) {
	// No input.
	c := parse(t, "R1 a 0 1k\n")
	if _, err := Build(c, Options{}); err == nil {
		t.Fatal("expected no-input error")
	}
	// VCVS rejected.
	c = parse(t, "VIN in 0 AC 1\nE1 out 0 in 0 10\nR1 out 0 1k\nR2 in 0 1k\n")
	if _, err := Build(c, Options{}); err == nil {
		t.Fatal("expected VCVS error")
	}
	// Input aliased to supply ground.
	c = parse(t, "V1 in 0 DC 3.3\nR1 in out 1k\nR2 out 0 1k\n")
	if _, err := Build(c, Options{Input: "in"}); err == nil {
		t.Fatal("expected grounded-input error")
	}
	// Input not touching anything.
	c = parse(t, "VIN in 0 AC 1\nR1 a 0 1k\nR2 a b 1k\n")
	if _, err := Build(c, Options{}); err == nil {
		t.Fatal("expected untouched-input error")
	}
	// Floating node: a VCCS drives "out" but nothing loads it, so the
	// node has no self-admittance and no DPI exists.
	c = parse(t, "VIN in 0 AC 1\nR1 in 0 1k\nG1 0 out in 0 1m\n")
	if _, err := Build(c, Options{}); err == nil {
		t.Fatal("expected floating-node error")
	}
	// Non-ground-referenced supply rejected.
	c = parse(t, "V1 a b DC 1\nVIN in 0 AC 1\nR1 in a 1k\nR2 b 0 1k\n")
	if _, err := Build(c, Options{}); err == nil {
		t.Fatal("expected supply-reference error")
	}
}

func TestEnvErrors(t *testing.T) {
	c := parse(t, `* missing op
VIN in 0 DC 1 AC 1
R1 in d 1k
M1 d in 0 0 nch W=1u L=1u
.model nch nmos ()
`)
	// An OP result that lacks the transistor.
	bare := &sim.DCResult{}
	if _, err := Env(c, bare, Options{}); err == nil {
		t.Fatal("expected missing-OP error")
	}
}

// Property-flavoured integration: for random RC ladders the DPI/SFG
// transfer function matches AC simulation at several frequencies.
func TestRandomRCLaddersMatchSim(t *testing.T) {
	decks := []string{
		`* ladder2
VIN in 0 AC 1
R1 in n1 1k
C1 n1 0 2p
R2 n1 n2 4k
C2 n2 0 1p
`,
		`* ladder with bridge cap
VIN in 0 AC 1
R1 in n1 2k
C1 n1 0 1p
C2 n1 n2 0.5p
R2 n2 0 8k
`,
		`* tee
VIN in 0 AC 1
R1 in n1 1k
R2 n1 n2 1k
C1 n1 0 3p
R3 n2 0 5k
C2 n2 0 0.2p
`,
	}
	for _, deck := range decks {
		c := parse(t, deck)
		op, err := sim.OP(c, sim.DCOpts{})
		if err != nil {
			t.Fatalf("%s: %v", deck[:12], err)
		}
		a, err := Build(c, Options{IncludeCaps: true})
		if err != nil {
			t.Fatal(err)
		}
		out := "n2"
		h, err := a.TransferFunction(out)
		if err != nil {
			t.Fatal(err)
		}
		env, _ := Env(c, op, Options{})
		ac, err := sim.AC(c, op, sim.ACOpts{FStart: 1e3, FStop: 1e9, PointsPerDecade: 5})
		if err != nil {
			t.Fatal(err)
		}
		hv, _ := ac.Transfer(out)
		for i, f := range ac.Freqs {
			got := evalAt(t, h, env, complex(0, 2*math.Pi*f))
			if cmplx.Abs(got-hv[i]) > 1e-3*(1+cmplx.Abs(hv[i])) {
				t.Fatalf("deck %q at %g Hz: %v vs %v", deck[:12], f, got, hv[i])
			}
		}
	}
}

// Property: for randomly generated RC/VCCS networks, the DPI/SFG + Mason
// transfer function (evaluated via the compiled program) matches the AC
// simulator at every probe frequency. This pits the two independent
// analysis paths — symbolic graph algebra and numeric matrix solves —
// against each other over a family of topologies.
func TestRandomNetworksMatchSimProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(3) + 2 // 2..4 internal nodes
		c := netlist.New("random network")
		c.MustAdd(&netlist.Element{
			Name: "vin", Type: netlist.VSource, Nodes: []string{"in", "0"},
			Src: &netlist.Source{ACMag: 1},
		})
		node := func(i int) string { return fmt.Sprintf("n%d", i) }
		// Series resistor chain guarantees every node a DC path.
		prev := "in"
		for i := 0; i < n; i++ {
			c.MustAdd(&netlist.Element{
				Name: fmt.Sprintf("r%d", i), Type: netlist.Resistor,
				Nodes: []string{prev, node(i)}, Value: 1e3 * (1 + 9*r.Float64()),
			})
			prev = node(i)
		}
		// Grounding resistor plus random caps and an occasional VCCS.
		c.MustAdd(&netlist.Element{
			Name: "rl", Type: netlist.Resistor,
			Nodes: []string{prev, "0"}, Value: 1e3 * (1 + 9*r.Float64()),
		})
		for i := 0; i < n; i++ {
			c.MustAdd(&netlist.Element{
				Name: fmt.Sprintf("c%d", i), Type: netlist.Capacitor,
				Nodes: []string{node(i), "0"}, Value: 1e-12 * (0.2 + r.Float64()),
			})
			if r.Float64() < 0.5 && i > 0 {
				c.MustAdd(&netlist.Element{
					Name: fmt.Sprintf("cb%d", i), Type: netlist.Capacitor,
					Nodes: []string{node(i - 1), node(i)}, Value: 0.3e-12 * r.Float64(),
				})
			}
		}
		if r.Float64() < 0.5 {
			c.MustAdd(&netlist.Element{
				Name: "g1", Type: netlist.VCCS,
				Nodes: []string{"0", node(n - 1), node(0), "0"},
				Value: 1e-4 * (1 + r.Float64()),
			})
		}
		out := node(n - 1)

		op, err := sim.OP(c, sim.DCOpts{})
		if err != nil {
			return false
		}
		a, err := Build(c, Options{IncludeCaps: true})
		if err != nil {
			return false
		}
		tf, err := a.TransferFunction(out)
		if err != nil {
			return false
		}
		env, err := Env(c, op, Options{})
		if err != nil {
			return false
		}
		prog, vars, err := tf.Compile()
		if err != nil {
			return false
		}
		vals := make([]complex128, len(vars))
		sIdx := -1
		for i, name := range vars {
			if name == "s" {
				sIdx = i
				continue
			}
			vals[i] = complex(env[name], 0)
		}
		ac, err := sim.AC(c, op, sim.ACOpts{FStart: 1e4, FStop: 1e9, PointsPerDecade: 2})
		if err != nil {
			return false
		}
		hv, _ := ac.Transfer(out)
		for i, f := range ac.Freqs {
			if sIdx >= 0 {
				vals[sIdx] = complex(0, 2*math.Pi*f)
			}
			got, err := prog.EvalC(vals)
			if err != nil {
				return false
			}
			if cmplx.Abs(got-hv[i]) > 1e-6*(1+cmplx.Abs(hv[i])) {
				t.Logf("seed %d: mismatch at %g Hz: %v vs %v", seed, f, got, hv[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}
