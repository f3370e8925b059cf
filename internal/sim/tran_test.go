package sim

import (
	"math"
	"testing"
)

// sample returns node's recorded value at time tp, a point of the run's
// grid: sample k lies at k·TStep, and T[1] is TStep.
func sample(t *testing.T, res *TranResult, node string, tp float64) float64 {
	t.Helper()
	w, err := res.Waveform(node)
	if err != nil {
		t.Fatal(err)
	}
	return w[int(math.Round(tp/res.T[1]))]
}

func TestTranRCCharge(t *testing.T) {
	// RC step response: v(t) = 5(1 − e^{−t/τ}), τ = 1 µs.
	c := mustParse(t, `* rc step
V1 in 0 PWL(0 0 1n 5)
R1 in out 1k
C1 out 0 1n
`)
	res, err := Tran(c, TranOpts{TStop: 5e-6, TStep: 10e-9, UseICs: true})
	if err != nil {
		t.Fatal(err)
	}
	tau := 1e-6
	for _, tp := range []float64{0.5e-6, 1e-6, 2e-6, 4e-6} {
		got := sample(t, res, "out", tp)
		want := 5 * (1 - math.Exp(-(tp-1e-9)/tau))
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("v(%g) = %g, want %g", tp, got, want)
		}
	}
}

func TestTranTrapVsBE(t *testing.T) {
	// Trapezoidal should be visibly more accurate than BE at a coarse
	// step. Free RC discharge from an initial condition, sampled at 2τ
	// (the simulator takes two BE start-up steps in both runs).
	deck := `* rc discharge coarse
R1 top 0 1k
C1 top 0 1n
`
	c := mustParse(t, deck)
	step := 100e-9 // τ/10
	ics := map[string]float64{"top": 1.0}
	trap, err := Tran(c, TranOpts{TStop: 2e-6, TStep: step, Method: Trapezoidal, UseICs: true, ICs: ics})
	if err != nil {
		t.Fatal(err)
	}
	be, err := Tran(c, TranOpts{TStop: 2e-6, TStep: step, Method: BackwardEuler, UseICs: true, ICs: ics})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-2.0)
	vTrap := sample(t, trap, "top", 2e-6)
	vBE := sample(t, be, "top", 2e-6)
	if math.Abs(vTrap-want) >= math.Abs(vBE-want) {
		t.Fatalf("trap err %g should beat BE err %g", math.Abs(vTrap-want), math.Abs(vBE-want))
	}
}

func TestTranSinSource(t *testing.T) {
	c := mustParse(t, `* follower of a sine through a resistor
V1 in 0 SIN(1 0.5 1MEG)
R1 in out 1
R2 out 0 1MEG
`)
	res, err := Tran(c, TranOpts{TStop: 2e-6, TStep: 5e-9, UseICs: true})
	if err != nil {
		t.Fatal(err)
	}
	// Peak near t = 0.25 µs should approach 1.5, trough near 0.75 µs → 0.5.
	peak := sample(t, res, "out", 0.25e-6)
	trough := sample(t, res, "out", 0.75e-6)
	if math.Abs(peak-1.5) > 0.01 || math.Abs(trough-0.5) > 0.01 {
		t.Fatalf("sine peaks: %g / %g", peak, trough)
	}
}

func TestTranPulse(t *testing.T) {
	c := mustParse(t, `* pulse passthrough
V1 in 0 PULSE(0 1 100n 10n 10n 200n 500n)
R1 in 0 1k
`)
	res, err := Tran(c, TranOpts{TStop: 1e-6, TStep: 2e-9, UseICs: true})
	if err != nil {
		t.Fatal(err)
	}
	v0 := sample(t, res, "in", 50e-9)  // before delay
	v1 := sample(t, res, "in", 200e-9) // during pulse
	v2 := sample(t, res, "in", 400e-9) // after pulse
	v3 := sample(t, res, "in", 700e-9) // second period, pulse high again
	if v0 != 0 || math.Abs(v1-1) > 1e-9 || math.Abs(v2) > 1e-9 || math.Abs(v3-1) > 1e-9 {
		t.Fatalf("pulse samples: %g %g %g %g", v0, v1, v2, v3)
	}
}

func TestClockPhase(t *testing.T) {
	period, nov := 100e-9, 5e-9
	cases := []struct {
		t    float64
		want int
	}{
		{0, 1},
		{20e-9, 1},
		{44e-9, 1},
		{47e-9, 0}, // non-overlap gap
		{50e-9, 2},
		{90e-9, 2},
		{97e-9, 0}, // gap before wrap
		{100e-9, 1},
		{120e-9, 1},
	}
	for _, c := range cases {
		if got := ClockPhase(c.t, period, nov); got != c.want {
			t.Errorf("ClockPhase(%g) = %d, want %d", c.t, got, c.want)
		}
	}
	if ClockPhase(123, 0, 0) != 0 {
		t.Error("no clock should mean no phase")
	}
}

// Switched-capacitor sample: during φ1 the cap tracks the input; during φ2
// it is isolated and holds.
func TestTranSampleAndHold(t *testing.T) {
	c := mustParse(t, `* track and hold
V1 in 0 DC 2
S1 in top swm phase=1
C1 top 0 1p
.model swm sw (ron=100 roff=1e13)
`)
	res, err := Tran(c, TranOpts{
		TStop: 200e-9, TStep: 0.5e-9,
		ClockPeriod: 100e-9, NonOverlap: 5e-9,
		UseICs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// End of φ1 (t≈40n): tracked to ≈2 V (τ = 100Ω·1pF = 0.1 ns).
	vTrack := sample(t, res, "top", 40e-9)
	if math.Abs(vTrack-2) > 0.01 {
		t.Fatalf("tracking failed: %g", vTrack)
	}
	// During φ2 (t≈80n): held.
	vHold := sample(t, res, "top", 80e-9)
	if math.Abs(vHold-2) > 0.02 {
		t.Fatalf("hold droop: %g", vHold)
	}
}

func TestTranMOSInverterSwitches(t *testing.T) {
	// NMOS inverter driven by a pulse: output swings opposite the input.
	c := mustParse(t, `* nmos inverter
V1 vdd 0 DC 3.3
VIN g 0 PULSE(0 3.3 20n 1n 1n 40n 100n)
RD vdd d 10k
M1 d g 0 0 nch W=10u L=0.25u
.model nch nmos (vto=0.45 kp=180u)
CL d 0 10f
`)
	res, err := Tran(c, TranOpts{TStop: 100e-9, TStep: 0.2e-9})
	if err != nil {
		t.Fatal(err)
	}
	vHighIn := sample(t, res, "d", 50e-9) // input high → output low
	vLowIn := sample(t, res, "d", 10e-9)  // input low → output high
	if vHighIn > 0.5 {
		t.Fatalf("output should pull low, got %g", vHighIn)
	}
	if vLowIn < 3.0 {
		t.Fatalf("output should sit high, got %g", vLowIn)
	}
}

func TestTranErrors(t *testing.T) {
	c := mustParse(t, "V1 a 0 DC 1\nR1 a 0 1k\n")
	if _, err := Tran(c, TranOpts{TStop: 0, TStep: 1e-9}); err == nil {
		t.Fatal("expected bad-window error")
	}
	if _, err := Tran(c, TranOpts{TStop: 1e-9, TStep: 1e-6}); err == nil {
		t.Fatal("expected step>stop error")
	}
	res, err := Tran(c, TranOpts{TStop: 10e-9, TStep: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Waveform("ghost"); err == nil {
		t.Fatal("expected unknown-node error")
	}
	if w, err := res.Waveform("0"); err != nil || w[0] != 0 {
		t.Fatal("ground waveform must be zeros")
	}
}

func TestTranICs(t *testing.T) {
	// Start a free RC discharge from an initial condition.
	c := mustParse(t, `* discharge
R1 top 0 1k
C1 top 0 1n
`)
	res, err := Tran(c, TranOpts{
		TStop: 3e-6, TStep: 10e-9,
		UseICs: true, ICs: map[string]float64{"top": 2.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := sample(t, res, "top", 1e-6) // one τ later: 2/e
	want := 2 / math.E
	if math.Abs(v-want) > 0.03 {
		t.Fatalf("discharge v(τ) = %g, want %g", v, want)
	}
}

func TestTranPWLEdges(t *testing.T) {
	// Before the first point the source holds the first value; after the
	// last it holds the last value.
	c := mustParse(t, `* pwl edges
V1 in 0 PWL(10n 1 20n 2)
R1 in 0 1k
`)
	res, err := Tran(c, TranOpts{TStop: 40e-9, TStep: 1e-9, UseICs: true})
	if err != nil {
		t.Fatal(err)
	}
	early := sample(t, res, "in", 2e-9)
	late := sample(t, res, "in", 35e-9)
	if math.Abs(early-1) > 1e-9 || math.Abs(late-2) > 1e-9 {
		t.Fatalf("PWL edges: early=%g late=%g", early, late)
	}
}

func TestTranPulseNoPeriod(t *testing.T) {
	// PER=0 means a one-shot pulse.
	src := `* oneshot
V1 in 0 PULSE(0 1 5n 1n 1n 5n 0)
R1 in 0 1k
`
	c := mustParse(t, src)
	c.Elements[0].Src.Pulse.PER = 0
	res, err := Tran(c, TranOpts{TStop: 40e-9, TStep: 0.5e-9, UseICs: true})
	if err != nil {
		t.Fatal(err)
	}
	during := sample(t, res, "in", 8e-9)
	after := sample(t, res, "in", 30e-9)
	if math.Abs(during-1) > 1e-9 || math.Abs(after) > 1e-9 {
		t.Fatalf("one-shot pulse: during=%g after=%g", during, after)
	}
}

// TestTranProbes: a probed run records only the named nodes, each
// bit-identical to the same node in a full recording, and rejects a
// name that is not a circuit node.
func TestTranProbes(t *testing.T) {
	c := parseDeck(t, reuseDeck)
	opts := TranOpts{TStop: 3e-7, TStep: 2e-9, ClockPeriod: 1e-7, NonOverlap: 2e-9}
	full, err := Tran(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Probes = []string{"out", "x2", "0"}
	got, err := Tran(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.V) != 2 || len(got.T) != len(full.T) {
		t.Fatalf("probed run recorded %d nodes over %d samples, want 2 over %d", len(got.V), len(got.T), len(full.T))
	}
	for _, node := range []string{"out", "x2"} {
		for i, v := range full.V[node] {
			if math.Float64bits(got.V[node][i]) != math.Float64bits(v) {
				t.Fatalf("node %s sample %d: probed %.17g vs full %.17g", node, i, got.V[node][i], v)
			}
		}
	}
	if w, err := got.Waveform("0"); err != nil || len(w) != len(got.T) {
		t.Fatalf("ground probe: %v", err)
	}
	opts.Probes = []string{"out", "ghost"}
	if _, err := Tran(c, opts); err == nil {
		t.Fatal("expected an error for a probe that is not a circuit node")
	}
}

// TestTranPredictedStartCutsNewtonWork: on the evaluator's settling
// transient, starting each trapezoidal step from the extrapolated state
// lets the carried factor converge in about 1.32 solves per step on the
// window/200 grid with trapezoidal Meyer caps (1.46 on the window/300
// grid with backward-Euler ones, where the bound was set). Started from
// the previous state, that window/300 run needed about 2.2, and 1.8 on
// the finer window/400 grid.
func TestTranPredictedStartCutsNewtonWork(t *testing.T) {
	hold, opts := settleRun(t)
	k0 := ReadKernelStats()
	res, err := Tran(hold, opts)
	if err != nil {
		t.Fatal(err)
	}
	k1 := ReadKernelStats()
	solves := k1.Factorizations - k0.Factorizations + k1.ReusedSolves - k0.ReusedSolves
	if perStep := float64(solves) / float64(len(res.T)-1); perStep > 1.6 {
		t.Fatalf("%.3f linear solves per transient step (DC solve included), want ≤ 1.6", perStep)
	}
}

// TestTranDeviceCapSecondOrder: a MOSFET gate charged through a
// resistor from a ramp, with no linear capacitor on the gate, so only
// the device's Meyer caps integrate (the device stays saturated, so
// they are constant). Against a fine-grid reference the largest error
// over the shared samples must fall at least 3× when the step halves:
// a second-order companion gives about 4×, the backward-Euler one
// about 2×.
func TestTranDeviceCapSecondOrder(t *testing.T) {
	c := mustParse(t, `* gate charged through a resistor
V1 in 0 DC 1 PWL(0 1 10n 2)
VD d 0 DC 3.3
R1 in g 100k
M1 d g 0 0 nch W=10u L=1u
.model nch nmos (vto=0.45 kp=180u)
`)
	const tStop, h = 20e-9, 0.5e-9
	run := func(step float64) []float64 {
		res, err := Tran(c, TranOpts{TStop: tStop, TStep: step, Probes: []string{"g"}})
		if err != nil {
			t.Fatal(err)
		}
		return res.V["g"]
	}
	const fine = 64
	ref := run(h / fine)
	maxErr := func(div int) float64 {
		w, worst := run(h/float64(div)), 0.0
		for i := range w {
			if j := i * fine / div; i*fine%div == 0 {
				worst = math.Max(worst, math.Abs(w[i]-ref[j]))
			}
		}
		return worst
	}
	coarse, halved := maxErr(1), maxErr(2)
	t.Logf("max |Δv(g)|: %.3g V at h, %.3g V at h/2 (ratio %.2f)", coarse, halved, coarse/halved)
	if coarse < 3*halved {
		t.Fatalf("error fell %.2f× when the step halved (%.3g → %.3g V), want ≥ 3×", coarse/halved, coarse, halved)
	}
}
