// Package stagespec translates ADC-level requirements (resolution, sample
// rate, reference) into per-stage MDAC block specifications — the
// "designer-derived analytical model for system-level description" of the
// paper's hybrid methodology. The equations are the standard pipelined-ADC
// design procedure: kT/C noise budgeting sets the sampling capacitors,
// residue accuracy sets settling tolerance and open-loop gain, and the
// two-phase clock sets the available settling window.
package stagespec

import (
	"fmt"
	"math"

	"pipesyn/internal/enum"
	"pipesyn/internal/pdk"
)

// ADCSpec is the converter-level requirement set.
type ADCSpec struct {
	Bits       int     // K, effective resolution
	SampleRate float64 // Fs in Hz
	VRef       float64 // full-scale range, V (residues swing ±VRef/2)
	Process    *pdk.Process

	// NoiseFraction is the ratio of the total thermal-noise power budget
	// to the quantization noise power (default 1: equal split, ~3 dB SNR
	// cost, the conventional choice).
	NoiseFraction float64
	// SettleFraction is the share of the half-period left for linear
	// settling after non-overlap and slewing margins (default 0.75).
	SettleFraction float64
	// SlewFraction is the share of the half-period allowed for slewing
	// (default 0.25).
	SlewFraction float64
}

// FillDefaults populates zero-valued knobs.
func (a *ADCSpec) FillDefaults() {
	if a.VRef == 0 {
		a.VRef = 1.0
	}
	if a.Process == nil {
		a.Process = pdk.TSMC025()
	}
	if a.NoiseFraction == 0 {
		a.NoiseFraction = 1.0
	}
	if a.SettleFraction == 0 {
		a.SettleFraction = 0.75
	}
	if a.SlewFraction == 0 {
		a.SlewFraction = 0.25
	}
}

// Validate rejects inconsistent converter-level specs.
func (a *ADCSpec) Validate() error {
	switch {
	case a.Bits < 4 || a.Bits > 16:
		return fmt.Errorf("stagespec: resolution %d outside supported 4..16 bits", a.Bits)
	case a.SampleRate <= 0:
		return fmt.Errorf("stagespec: non-positive sample rate")
	case a.VRef <= 0:
		return fmt.Errorf("stagespec: non-positive reference")
	}
	return a.Process.Validate()
}

// MDACSpec is the block-level requirement set for one pipeline stage,
// ready for the synthesis engine.
type MDACSpec struct {
	Stage     int     // 1-based position
	Bits      int     // mᵢ, raw stage resolution
	PriorBits int     // R_{i-1}
	Gain      float64 // inter-stage residue gain 2^(mᵢ−1)
	Beta      float64 // feedback factor of the hold-phase loop ≈ 1/Gain

	CSample float64 // total sampling capacitance, F
	CFeed   float64 // feedback capacitance, F (CSample/Gain)
	CLoad   float64 // load during hold: next stage's sampling cap

	SettleTol float64 // required relative residue accuracy ε
	TSettle   float64 // linear-settling window, s
	TSlew     float64 // slewing window, s

	GBWMin   float64 // required loop unity-gain bandwidth, Hz
	SRMin    float64 // required slew rate, V/s
	GainMin  float64 // required amplifier DC gain, V/V
	SwingMin float64 // required output swing (peak), V

	StepMax float64 // worst-case residue step at the amplifier output, V

	// Sub-ADC requirements.
	ComparatorCount int
	CompOffsetTol   float64 // tolerable comparator offset, V
}

// Translate maps an ADC spec and a leading-stage configuration into MDAC
// block specs, one per listed stage.
func Translate(adc ADCSpec, cfg enum.Config) ([]MDACSpec, error) {
	adc.FillDefaults()
	if err := adc.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Valid(6) {
		return nil, fmt.Errorf("stagespec: invalid configuration %s", cfg)
	}
	if cfg.Resolution() > adc.Bits {
		return nil, fmt.Errorf("stagespec: configuration %s resolves %d bits, more than target %d",
			cfg, cfg.Resolution(), adc.Bits)
	}
	p := adc.Process
	lsb := adc.VRef / math.Pow(2, float64(adc.Bits))
	qNoise := lsb * lsb / 12
	thermalBudget := adc.NoiseFraction * qNoise

	tHalf := 1 / (2 * adc.SampleRate)
	tSettle := adc.SettleFraction * tHalf
	tSlew := adc.SlewFraction * tHalf

	specs := make([]MDACSpec, len(cfg))
	caps := make([]float64, len(cfg))

	// Noise budgeting: stage i gets a 2^-i share of the thermal budget
	// (geometric allocation front-loads the budget where capacitors are
	// most expensive); the input-referred noise of stage i is kT/Cᵢ
	// divided by the squared gain preceding it.
	totalShare := 0.0
	for i := range cfg {
		totalShare += math.Pow(0.5, float64(i+1))
	}
	for i, m := range cfg {
		share := math.Pow(0.5, float64(i+1)) / totalShare
		gPrior := 1.0
		if i > 0 {
			// Cumulative residue gain before stage i: 2^(R_{i-1}−1).
			gPrior = math.Pow(2, float64(cfg.ResolutionAfter(i)-1))
		}
		vnsq := share * thermalBudget * gPrior * gPrior
		caps[i] = p.ClampC(p.NoiseCapFor(vnsq))
		_ = m
	}

	for i, m := range cfg {
		gain := math.Pow(2, float64(m-1))
		prior := cfg.ResolutionAfter(i)
		// Residue accuracy: total stage error < ½ LSB of the bits that
		// remain after this stage completes its own mᵢ−1 effective bits.
		resAfter := cfg.ResolutionAfter(i + 1)
		eps := math.Pow(2, -float64(adc.Bits-resAfter+1))
		if adc.Bits == resAfter {
			eps = math.Pow(2, -2) // last stage: quarter-LSB, nearly free
		}

		// Linear settling: ε = exp(−t/τ) → required closed-loop τ.
		ntau := math.Log(1 / eps)
		tau := tSettle / ntau
		fCl := 1 / (2 * math.Pi * tau)
		beta := 1 / gain

		// Load: next listed stage's sampling cap, or a tail-stage cap.
		cl := p.CapMin * 4
		if i+1 < len(cfg) {
			cl = caps[i+1]
		}

		// Slew: worst residue step is the full reference (comparator
		// decision flips the DAC by VRef at the summing node ×gain ≈ VRef
		// at the output).
		step := adc.VRef
		sr := step / tSlew

		// Static accuracy: 1/(A·β) < ε/2.
		aMin := 2 / (eps * beta)

		specs[i] = MDACSpec{
			Stage:     i + 1,
			Bits:      m,
			PriorBits: prior,
			Gain:      gain,
			Beta:      beta,
			CSample:   caps[i],
			CFeed:     caps[i] / gain,
			CLoad:     cl,
			SettleTol: eps,
			TSettle:   tSettle,
			TSlew:     tSlew,
			// The amplifier's unity-gain bandwidth must place the loop
			// crossover β·GBW at f_cl: GBW = f_cl/β.
			GBWMin:   fCl / beta,
			SRMin:    sr,
			GainMin:  aMin,
			SwingMin: adc.VRef / 2,
			StepMax:  step,

			ComparatorCount: (1 << m) - 2,
			CompOffsetTol:   adc.VRef / math.Pow(2, float64(m+1)),
		}
	}
	return specs, nil
}
