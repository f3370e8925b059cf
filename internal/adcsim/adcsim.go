// Package adcsim is a behavioral simulator for pipelined ADCs with
// digital correction. It models each stage as a flash sub-ADC deciding a
// DAC level plus an amplified residue, with injectable non-idealities
// (gain error, input-referred noise, comparator offsets, incomplete
// settling), then reconstructs the output code exactly as the correction
// logic does. Together with package dsp it verifies that a synthesized
// stage-resolution configuration actually delivers the target ENOB — and
// that the 1-bit redundancy really absorbs comparator-level errors.
package adcsim

import (
	"fmt"
	"math"
	"math/rand"

	"pipesyn/internal/enum"
)

// StageModel is the behavioral description of one pipeline stage.
type StageModel struct {
	Bits int // raw resolution mᵢ (gain 2^(mᵢ−1))
	// Non-idealities; all zero = ideal stage. GainError and SettleError
	// scale the entire closed-loop residue expression G·v − d·VRef — in a
	// real MDAC the signal gain and the DAC subtraction share the same
	// capacitor ratio and loop gain, which is exactly why such errors
	// produce code-transition discontinuities rather than a benign
	// full-scale rescale.
	GainError     float64 // relative closed-loop gain error
	NoiseRMS      float64 // input-referred additive noise, V
	CompOffsetRMS float64 // per-comparator threshold offset, V
	SettleError   float64 // unsettled fraction of the residue step
	// DACMismatch is the static per-level error of the stage DAC in VRef
	// units: level d subtracts (d + DACMismatch[d+G−1])·VRef from the
	// amplified input instead of d·VRef. In a switched-capacitor MDAC
	// each level switches a different subset of the sampling unit caps,
	// so capacitor mismatch lands exactly here — level-dependent DAC
	// errors the digital correction cannot absorb. Length must be 0
	// (ideal) or 2G−1 where G = 2^(Bits−1), indexed by d+G−1 for
	// d ∈ [−(G−1), G−1].
	DACMismatch []float64
}

// Converter is a behavioral pipelined ADC. The input range is ±VRef.
type Converter struct {
	VRef   float64
	Stages []StageModel
	// seed anchors the static-mismatch draws. Each stage's comparator
	// offsets come from its own deterministic substream of this seed, so
	// injecting a model into one stage never disturbs another stage's
	// mismatch realization, and the draw is independent of the order in
	// which stages are configured.
	seed int64
	// noise is the dynamic-noise stream, deliberately separate from the
	// mismatch substreams: Convert calls consume noise samples without
	// perturbing the static mismatch state.
	noise *rand.Rand
	// offsets[i][j] is the fixed offset of stage i's j-th threshold,
	// drawn once per SetStage (offsets are static mismatch, not noise).
	offsets [][]float64
}

// stageSeed derives the deterministic substream seed for one stage's
// static mismatch (or, with stage = −1, the dynamic-noise stream). It is
// a splitmix64-style finalizer over (seed, stage): adjacent seeds and
// stages land in statistically unrelated streams.
func stageSeed(seed int64, stage int) int64 {
	z := uint64(seed) + uint64(stage+2)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// New builds a converter from a full configuration (use
// enum.Config.WithTail to extend a leading-stage candidate to K bits).
// Seed fixes the mismatch draw.
func New(cfg enum.Config, vref float64, seed int64) (*Converter, error) {
	if !cfg.Valid(6) {
		return nil, fmt.Errorf("adcsim: invalid configuration %s", cfg)
	}
	if vref <= 0 {
		return nil, fmt.Errorf("adcsim: non-positive reference")
	}
	c := &Converter{VRef: vref, seed: seed, noise: rand.New(rand.NewSource(stageSeed(seed, -1)))}
	for _, m := range cfg {
		c.Stages = append(c.Stages, StageModel{Bits: m})
	}
	c.offsets = make([][]float64, len(c.Stages))
	for i := range c.Stages {
		c.resampleStage(i)
	}
	return c, nil
}

// SetStage replaces a stage model (to inject non-idealities) and redraws
// that stage's — and only that stage's — comparator offsets from its
// deterministic substream. Stage i's mismatch realization therefore
// depends only on (seed, i, CompOffsetRMS), not on how many times or in
// which order other stages were configured.
func (c *Converter) SetStage(i int, m StageModel) error {
	if i < 0 || i >= len(c.Stages) {
		return fmt.Errorf("adcsim: stage %d out of range", i)
	}
	if m.Bits != c.Stages[i].Bits {
		return fmt.Errorf("adcsim: cannot change stage resolution (%d→%d)", c.Stages[i].Bits, m.Bits)
	}
	if n := len(m.DACMismatch); n != 0 {
		if want := 2*(1<<(m.Bits-1)) - 1; n != want {
			return fmt.Errorf("adcsim: stage %d DAC mismatch has %d levels, want %d", i, n, want)
		}
	}
	c.Stages[i] = m
	c.resampleStage(i)
	return nil
}

// resampleStage redraws stage i's comparator offsets from the stage's own
// substream. A fresh generator per call makes the draw a pure function of
// (converter seed, stage index, the stage's CompOffsetRMS).
func (c *Converter) resampleStage(i int) {
	st := c.Stages[i]
	rng := rand.New(rand.NewSource(stageSeed(c.seed, i)))
	g := 1 << (st.Bits - 1)
	n := 2*g - 2 // thresholds of a 2^bits−2 comparator flash
	c.offsets[i] = make([]float64, n)
	for j := range c.offsets[i] {
		c.offsets[i][j] = rng.NormFloat64() * st.CompOffsetRMS
	}
}

// Resolution returns the effective number of bits of the pipeline,
// m₁ + Σ(mᵢ−1).
func (c *Converter) Resolution() int {
	cfg := make(enum.Config, len(c.Stages))
	for i, s := range c.Stages {
		cfg[i] = s.Bits
	}
	return cfg.Resolution()
}

// Convert digitizes one sample (clamped to ±VRef) and returns the
// corrected output code in [0, 2^K).
func (c *Converter) Convert(vin float64) int {
	k := c.Resolution()
	vhat := c.convertValue(vin)
	// Map the reconstructed value (in VRef units, range ±1) to a code.
	// Ideal reconstructions land exactly on the grid x ∈ {1 … 2^K−1}, so
	// round (not floor) keeps float dust from dithering adjacent codes;
	// the shift by one puts the bottom of the range at code 0 (the top
	// code 2^K−1 is unused, as in any redundancy-corrected pipeline).
	x := (vhat + 1) / 2 * math.Exp2(float64(k))
	code := int(math.Round(x)) - 1
	if code < 0 {
		code = 0
	}
	if max := int(math.Exp2(float64(k))) - 1; code > max {
		code = max
	}
	return code
}

// convertValue runs the pipeline and digital correction, returning the
// reconstructed input estimate normalized to VRef (range ≈ ±1).
func (c *Converter) convertValue(vin float64) float64 {
	v := clamp(vin, -c.VRef, c.VRef)
	acc := 0.0      // reconstructed estimate, in VRef units
	gainProd := 1.0 // Π_{j≤i} G_j
	for i, st := range c.Stages {
		g := float64(int(1) << (st.Bits - 1))
		if st.NoiseRMS > 0 {
			v += c.noise.NormFloat64() * st.NoiseRMS
		}
		d := c.subADC(i, v, int(g))
		gainProd *= g
		acc += float64(d) / gainProd // d_i·VRef / Π_{j≤i}G_j, normalized
		if i == len(c.Stages)-1 {
			break
		}
		// Residue amplification: gain error and incomplete settling scale
		// the whole closed-loop expression (signal and DAC terms share
		// the capacitor ratio), creating the classic INL staircase. The
		// DAC level itself carries its static capacitor-mismatch error:
		// the analog subtraction is off by DACMismatch[d+G−1]·VRef while
		// the digital reconstruction still assumes the ideal level.
		dac := float64(d)
		if len(st.DACMismatch) > 0 {
			dac += st.DACMismatch[d+int(g)-1]
		}
		v = (1 + st.GainError) * (1 - st.SettleError) * (g*v - dac*c.VRef)
	}
	// The final residue below the last flash's LSB is the converter's
	// quantization error (±½ LSB for ideal stages).
	return acc
}

// subADC quantizes v with stage i's flash: thresholds at
// (j+0.5)·VRef/G for j in [−(G−1), G−2], plus static offsets.
// The decision d ∈ [−(G−1), G−1].
func (c *Converter) subADC(stage int, v float64, g int) int {
	d := -(g - 1)
	offs := c.offsets[stage]
	for j := -(g - 1); j <= g-2; j++ {
		t := (float64(j) + 0.5) * c.VRef / float64(g)
		oi := j + g - 1
		if oi < len(offs) {
			t += offs[oi]
		}
		if v > t {
			d++
		}
	}
	return d
}

// SineTest runs a coherent full-scale sine test and returns the codes as
// normalized floats ready for dsp.SineTestMetrics. amplitude is relative
// to full scale (use ~0.95 to avoid clipping the edges).
func (c *Converter) SineTest(fs, fSig float64, n int, amplitude float64) []float64 {
	k := c.Resolution()
	scale := math.Exp2(float64(k))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		v := amplitude * c.VRef * math.Sin(2*math.Pi*fSig*float64(i)/fs)
		out[i] = float64(c.Convert(v)) / scale
	}
	return out
}

// RampHistogram drives a uniform ramp through the converter and returns
// the code histogram for INL/DNL extraction.
func (c *Converter) RampHistogram(samplesPerCode int) []int {
	k := c.Resolution()
	codes := int(math.Exp2(float64(k)))
	total := codes * samplesPerCode
	hist := make([]int, codes)
	for i := 0; i < total; i++ {
		v := -c.VRef + 2*c.VRef*(float64(i)+0.5)/float64(total)
		hist[c.Convert(v)]++
	}
	return hist
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
