package adcsim

import (
	"math"
	"testing"

	"pipesyn/internal/dsp"
	"pipesyn/internal/enum"
)

func ideal13(t *testing.T) *Converter {
	t.Helper()
	full, err := enum.Config{4, 3, 2}.WithTail(13)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(full, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestResolution(t *testing.T) {
	c := ideal13(t)
	if c.Resolution() != 13 {
		t.Fatalf("resolution = %d", c.Resolution())
	}
}

func TestMonotonicOnRamp(t *testing.T) {
	c := ideal13(t)
	prev := -1
	for i := 0; i <= 1000; i++ {
		v := -1.0 + 2.0*float64(i)/1000
		code := c.Convert(v)
		if code < prev {
			t.Fatalf("non-monotonic at v=%g: %d after %d", v, code, prev)
		}
		prev = code
	}
	if c.Convert(-2) != c.Convert(-1) || c.Convert(-2) != 0 {
		t.Fatal("under-range must clamp to 0")
	}
	if c.Convert(2) != c.Convert(1) {
		t.Fatal("over-range must clamp to the top used code")
	}
}

func TestIdealENOB(t *testing.T) {
	for _, tc := range []struct {
		cfg enum.Config
		k   int
	}{
		{enum.Config{4, 3, 2}, 13},
		{enum.Config{2, 2, 2, 2, 2, 2}, 13},
		{enum.Config{3, 2, 2, 2, 2}, 10},
	} {
		full, err := tc.cfg.WithTail(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(full, 1.0, 7)
		if err != nil {
			t.Fatal(err)
		}
		n := 4096
		fs := 40e6
		fSig, _ := dsp.CoherentBin(fs, 2.3e6, n)
		samples := c.SineTest(fs, fSig, n, 0.95)
		m, err := dsp.SineTestMetrics(samples, fs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.ENOB-float64(tc.k)) > 0.5 {
			t.Fatalf("%s @ %d-bit: ENOB = %.2f", tc.cfg, tc.k, m.ENOB)
		}
	}
}

// Digital correction must absorb comparator offsets up to the redundancy
// margin; beyond it, ENOB collapses.
func TestRedundancyAbsorbsOffsets(t *testing.T) {
	full, _ := enum.Config{4, 3, 2}.WithTail(13)
	n := 4096
	fs := 40e6
	fSig, _ := dsp.CoherentBin(fs, 2.3e6, n)

	run := func(offsetRMS float64) float64 {
		c, err := New(full, 1.0, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Stages {
			st := c.Stages[i]
			st.CompOffsetRMS = offsetRMS
			if err := c.SetStage(i, st); err != nil {
				t.Fatal(err)
			}
		}
		m, err := dsp.SineTestMetrics(c.SineTest(fs, fSig, n, 0.95), fs)
		if err != nil {
			t.Fatal(err)
		}
		return m.ENOB
	}
	// Offsets at 1/8 of the stage LSB (well within the ±VRef/2G margin).
	small := run(1.0 / 8 / 16)
	if small < 12.5 {
		t.Fatalf("correctable offsets broke the converter: ENOB %.2f", small)
	}
	// Offsets far beyond the margin.
	big := run(0.25)
	if big > small-1.5 {
		t.Fatalf("huge offsets should collapse ENOB: %.2f vs %.2f", big, small)
	}
}

func TestGainErrorDegrades(t *testing.T) {
	full, _ := enum.Config{4, 3, 2}.WithTail(13)
	n := 4096
	fs := 40e6
	fSig, _ := dsp.CoherentBin(fs, 2.3e6, n)
	c, _ := New(full, 1.0, 13)
	st := c.Stages[0]
	st.GainError = 0.01 // 1% first-stage gain error: catastrophic at 13 bits
	if err := c.SetStage(0, st); err != nil {
		t.Fatal(err)
	}
	m, err := dsp.SineTestMetrics(c.SineTest(fs, fSig, n, 0.95), fs)
	if err != nil {
		t.Fatal(err)
	}
	// The residual sawtooth after the correlated (gain-like) part is
	// ε·q(v) with q uniform in ±1/2G: distortion RMS ≈ ε/(2G√3), which
	// for ε = 1%, G = 8 puts ENOB near 10.5 — a ~2.5 bit loss.
	if m.ENOB > 11 {
		t.Fatalf("1%% stage-1 gain error should crush ENOB, got %.2f", m.ENOB)
	}
}

func TestNoiseBudgetHalfLSB(t *testing.T) {
	// Input-referred noise of 1/2 LSB RMS costs ≈ 1 bit of ENOB-ish;
	// verify direction and rough scale.
	full, _ := enum.Config{4, 3, 2}.WithTail(13)
	n := 4096
	fs := 40e6
	fSig, _ := dsp.CoherentBin(fs, 2.3e6, n)
	lsb := 2.0 / math.Exp2(13)
	c, _ := New(full, 1.0, 17)
	st := c.Stages[0]
	st.NoiseRMS = lsb / 2
	if err := c.SetStage(0, st); err != nil {
		t.Fatal(err)
	}
	m, err := dsp.SineTestMetrics(c.SineTest(fs, fSig, n, 0.95), fs)
	if err != nil {
		t.Fatal(err)
	}
	if m.ENOB > 12.8 || m.ENOB < 11 {
		t.Fatalf("half-LSB noise: ENOB %.2f outside expected band", m.ENOB)
	}
}

func TestSettleErrorActsLikeGainError(t *testing.T) {
	full, _ := enum.Config{4, 3, 2}.WithTail(13)
	n := 4096
	fs := 40e6
	fSig, _ := dsp.CoherentBin(fs, 2.3e6, n)
	c, _ := New(full, 1.0, 19)
	st := c.Stages[0]
	st.SettleError = 0.005
	if err := c.SetStage(0, st); err != nil {
		t.Fatal(err)
	}
	m, err := dsp.SineTestMetrics(c.SineTest(fs, fSig, n, 0.95), fs)
	if err != nil {
		t.Fatal(err)
	}
	// Same sawtooth mechanism as gain error at half the magnitude:
	// roughly a 1.5 bit loss.
	if m.ENOB > 12 {
		t.Fatalf("0.5%% settling error should degrade ENOB, got %.2f", m.ENOB)
	}
}

func TestRampHistogramINLDNL(t *testing.T) {
	// A short ideal pipeline: near-zero INL/DNL.
	full, _ := enum.Config{3, 2}.WithTail(6)
	c, err := New(full, 1.0, 23)
	if err != nil {
		t.Fatal(err)
	}
	hist := c.RampHistogram(32)
	// The top code of a redundancy-corrected pipeline is unused; drop it
	// so the histogram edges line up with INLDNL's edge exclusion.
	hist = hist[:len(hist)-1]
	inl, dnl, err := dsp.INLDNL(hist)
	if err != nil {
		t.Fatal(err)
	}
	if dsp.PeakAbs(dnl) > 0.2 || dsp.PeakAbs(inl) > 0.3 {
		t.Fatalf("ideal converter INL %.3f DNL %.3f", dsp.PeakAbs(inl), dsp.PeakAbs(dnl))
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := New(enum.Config{}, 1, 0); err == nil {
		t.Fatal("expected invalid-config error")
	}
	if _, err := New(enum.Config{2, 2}, 0, 0); err == nil {
		t.Fatal("expected reference error")
	}
	c, _ := New(enum.Config{2, 2}, 1, 0)
	if err := c.SetStage(9, StageModel{Bits: 2}); err == nil {
		t.Fatal("expected range error")
	}
	if err := c.SetStage(0, StageModel{Bits: 4}); err == nil {
		t.Fatal("expected resolution-change error")
	}
}

func TestConvertAll(t *testing.T) {
	c := ideal13(t)
	codes := []int{c.Convert(-1), c.Convert(0), c.Convert(1)}
	if codes[0] >= codes[1] || codes[1] >= codes[2] {
		t.Fatalf("codes = %v", codes)
	}
}

// Mismatch draws must be a pure function of (seed, stage): configuring
// the stages in any order, any number of times, yields the same offsets
// as configuring them front to back — the contract the Monte-Carlo yield
// lane's reproducibility rests on.
func TestSetStageOrderIndependent(t *testing.T) {
	full, _ := enum.Config{4, 3, 2}.WithTail(13)
	build := func(order []int) *Converter {
		c, err := New(full, 1.0, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			st := c.Stages[i]
			st.CompOffsetRMS = 1.0 / 64
			if err := c.SetStage(i, st); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	fwd := make([]int, len(full))
	rev := make([]int, len(full))
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(full) - 1 - i
	}
	a, b := build(fwd), build(rev)
	for i := range a.offsets {
		if len(a.offsets[i]) != len(b.offsets[i]) {
			t.Fatalf("stage %d offset count differs", i)
		}
		for j := range a.offsets[i] {
			if a.offsets[i][j] != b.offsets[i][j] {
				t.Fatalf("stage %d offset %d: %g (0,1,2 order) vs %g (2,1,0 order)",
					i, j, a.offsets[i][j], b.offsets[i][j])
			}
		}
	}
	// Re-setting one stage must not disturb any other stage's draw.
	st := a.Stages[0]
	if err := a.SetStage(0, st); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a.offsets); i++ {
		for j := range a.offsets[i] {
			if a.offsets[i][j] != b.offsets[i][j] {
				t.Fatalf("SetStage(0) perturbed stage %d offsets", i)
			}
		}
	}
}

// Dynamic noise draws ride their own stream: converting samples (which
// consumes noise) must not shift the static mismatch that a later
// SetStage draws.
func TestConvertDoesNotPerturbMismatch(t *testing.T) {
	full, _ := enum.Config{4, 3, 2}.WithTail(13)
	configure := func(c *Converter, convertFirst bool) {
		st0 := c.Stages[0]
		st0.NoiseRMS = 1e-4
		if err := c.SetStage(0, st0); err != nil {
			t.Fatal(err)
		}
		if convertFirst {
			for i := 0; i < 257; i++ {
				c.Convert(float64(i)/300 - 0.4)
			}
		}
		st1 := c.Stages[1]
		st1.CompOffsetRMS = 1.0 / 64
		if err := c.SetStage(1, st1); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := New(full, 1.0, 5)
	b, _ := New(full, 1.0, 5)
	configure(a, true)
	configure(b, false)
	for j := range a.offsets[1] {
		if a.offsets[1][j] != b.offsets[1][j] {
			t.Fatalf("noise consumption changed stage-1 mismatch draw: %g vs %g",
				a.offsets[1][j], b.offsets[1][j])
		}
	}
}

// DAC-level mismatch is a static error the digital correction cannot
// absorb: large per-level errors must degrade ENOB, and a wrong-length
// vector must be rejected.
func TestDACMismatchDegrades(t *testing.T) {
	full, _ := enum.Config{4, 3, 2}.WithTail(13)
	n := 4096
	fs := 40e6
	fSig, _ := dsp.CoherentBin(fs, 2.3e6, n)

	c, _ := New(full, 1.0, 29)
	st := c.Stages[0]
	if err := c.SetStage(0, StageModel{Bits: st.Bits, DACMismatch: []float64{0, 0}}); err == nil {
		t.Fatal("expected length validation error for DAC mismatch")
	}
	g := 1 << (st.Bits - 1)
	mm := make([]float64, 2*g-1)
	for j := range mm {
		d := j - (g - 1)
		mm[j] = 0.02 * float64(d%3) // a few % of a level: gross at 13 bits
	}
	st.DACMismatch = mm
	if err := c.SetStage(0, st); err != nil {
		t.Fatal(err)
	}
	m, err := dsp.SineTestMetrics(c.SineTest(fs, fSig, n, 0.95), fs)
	if err != nil {
		t.Fatal(err)
	}
	if m.ENOB > 9 {
		t.Fatalf("gross DAC mismatch should crush ENOB, got %.2f", m.ENOB)
	}
}

// Monte Carlo mismatch analysis: with comparator offsets drawn at half
// the redundancy margin, every mismatch realization must still convert
// within a fraction of a bit of the target — the statistical face of the
// digital-correction guarantee.
func TestMonteCarloOffsetYield(t *testing.T) {
	full, _ := enum.Config{4, 3, 2}.WithTail(13)
	n := 2048
	fs := 40e6
	fSig, _ := dsp.CoherentBin(fs, 2.3e6, n)
	// Stage-1 margin is ±VRef/2G = ±1/16; draw at σ = margin/4.
	sigma := 1.0 / 64
	worst := 99.0
	for seed := int64(0); seed < 20; seed++ {
		c, err := New(full, 1.0, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Stages {
			st := c.Stages[i]
			st.CompOffsetRMS = sigma
			if err := c.SetStage(i, st); err != nil {
				t.Fatal(err)
			}
		}
		m, err := dsp.SineTestMetrics(c.SineTest(fs, fSig, n, 0.95), fs)
		if err != nil {
			t.Fatal(err)
		}
		if m.ENOB < worst {
			worst = m.ENOB
		}
	}
	if worst < 12.3 {
		t.Fatalf("worst-case ENOB over 20 mismatch draws = %.2f, want ≥ 12.3", worst)
	}
}
