package stagespec

import (
	"math"
	"testing"
	"testing/quick"

	"pipesyn/internal/enum"
)

func adc13() ADCSpec {
	return ADCSpec{Bits: 13, SampleRate: 40e6, VRef: 1.0}
}

func TestTranslate432(t *testing.T) {
	specs, err := Translate(adc13(), enum.Config{4, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs", len(specs))
	}
	s1 := specs[0]
	if s1.Gain != 8 || s1.Beta != 0.125 || s1.Bits != 4 {
		t.Fatalf("stage 1 = %+v", s1)
	}
	// Stage-1 settling tolerance: after stage 1, R=4, so ε = 2^-(13-4+1).
	if math.Abs(s1.SettleTol-math.Pow(2, -10)) > 1e-12 {
		t.Fatalf("ε1 = %g, want 2^-10", s1.SettleTol)
	}
	// 4-bit stage: 2^4−2 = 14 comparators.
	if s1.ComparatorCount != 14 {
		t.Fatalf("comparators = %d, want 14", s1.ComparatorCount)
	}
	// Settling window shares the half-period: 0.75·12.5ns.
	if math.Abs(s1.TSettle-0.75/(2*40e6)) > 1e-15 {
		t.Fatalf("TSettle = %g", s1.TSettle)
	}
	// GBW must comfortably exceed the sample rate for a 13-bit 40 MSPS
	// front stage (hundreds of MHz with β = 1/8).
	if s1.GBWMin < 200e6 {
		t.Fatalf("GBWMin = %g, implausibly low", s1.GBWMin)
	}
}

func TestCapsShrinkDownPipeline(t *testing.T) {
	specs, err := Translate(adc13(), enum.Config{4, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].CSample >= specs[i-1].CSample {
			t.Fatalf("caps must shrink: C%d=%g ≥ C%d=%g",
				i+1, specs[i].CSample, i, specs[i-1].CSample)
		}
	}
	// Feedback cap is CSample/Gain.
	for _, s := range specs {
		if math.Abs(s.CFeed-s.CSample/s.Gain) > 1e-20 {
			t.Fatalf("CFeed inconsistent at stage %d", s.Stage)
		}
	}
}

func TestAccuracyRelaxesDownPipeline(t *testing.T) {
	specs, _ := Translate(adc13(), enum.Config{2, 2, 2, 2, 2, 2})
	for i := 1; i < len(specs); i++ {
		if specs[i].SettleTol <= specs[i-1].SettleTol {
			t.Fatalf("tolerance must relax down the pipe: ε%d=%g ε%d=%g",
				i+1, specs[i].SettleTol, i, specs[i-1].SettleTol)
		}
		if specs[i].GainMin >= specs[i-1].GainMin {
			t.Fatalf("gain requirement must relax down the pipe")
		}
	}
}

func TestFirstStageCapDominates(t *testing.T) {
	// The 13-bit front stage needs a kT/C-sized capacitor in the picofarad
	// class; sanity-check the absolute scale.
	specs, _ := Translate(adc13(), enum.Config{4, 3, 2})
	c1 := specs[0].CSample
	if c1 < 0.2e-12 || c1 > 20e-12 {
		t.Fatalf("C1 = %g F, outside the plausible pF range", c1)
	}
}

func TestHigherResolutionNeedsMoreCap(t *testing.T) {
	cfg := enum.Config{4, 3, 2}
	s13, _ := Translate(adc13(), cfg)
	a := adc13()
	a.Bits = 10
	s10, _ := Translate(a, cfg)
	if s13[0].CSample <= s10[0].CSample {
		t.Fatalf("13-bit C1 (%g) must exceed 10-bit C1 (%g)",
			s13[0].CSample, s10[0].CSample)
	}
	if s13[0].GainMin <= s10[0].GainMin {
		t.Fatal("13-bit gain requirement must exceed 10-bit")
	}
}

func TestTranslateErrors(t *testing.T) {
	if _, err := Translate(ADCSpec{Bits: 2, SampleRate: 1e6}, enum.Config{2, 2}); err == nil {
		t.Fatal("expected resolution-range error")
	}
	if _, err := Translate(ADCSpec{Bits: 13}, enum.Config{4, 3, 2}); err == nil {
		t.Fatal("expected sample-rate error")
	}
	if _, err := Translate(adc13(), enum.Config{}); err == nil {
		t.Fatal("expected invalid-config error")
	}
	if _, err := Translate(adc13(), enum.Config{3, 4}); err == nil {
		t.Fatal("expected ascending-config error")
	}
	// Config resolving more bits than the converter target.
	a := adc13()
	a.Bits = 5
	if _, err := Translate(a, enum.Config{4, 4}); err == nil {
		t.Fatal("expected over-resolution error")
	}
	for name, mut := range map[string]func(*ADCSpec){
		"17 bits":        func(a *ADCSpec) { a.Bits = 17 },
		"fs 1e300":       func(a *ADCSpec) { a.SampleRate = 1e300 },
		"fs NaN":         func(a *ADCSpec) { a.SampleRate = math.NaN() },
		"fs above 1 GHz": func(a *ADCSpec) { a.SampleRate = 1.01e9 },
		"vref 1e300":     func(a *ADCSpec) { a.VRef = 1e300 },
		"vref +Inf":      func(a *ADCSpec) { a.VRef = math.Inf(1) },
		"vref above VDD": func(a *ADCSpec) { a.VRef = 3.4 },
		"slew NaN":       func(a *ADCSpec) { a.SlewFraction = math.NaN() },
	} {
		a := adc13()
		mut(&a)
		if _, err := Translate(a, enum.Config{4, 3, 2}); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
	a = adc13()
	a.SampleRate, a.VRef = MaxSampleRate, 3.3
	if _, err := Translate(a, enum.Config{4, 3, 2}); err != nil {
		t.Errorf("fs and vref at their ceilings: %v", err)
	}
}

// Property: for any valid enumerated candidate, the translation yields
// monotonically relaxing accuracy and positive physical quantities.
func TestTranslateInvariantsProperty(t *testing.T) {
	cands, err := enum.Candidates(13, enum.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(pick uint8, bitsRaw uint8) bool {
		cfg := cands[int(pick)%len(cands)]
		a := adc13()
		a.Bits = int(bitsRaw)%6 + 8 // 8..13
		if cfg.Resolution() > a.Bits {
			return true
		}
		specs, err := Translate(a, cfg)
		if err != nil {
			return false
		}
		for i, s := range specs {
			if s.CSample <= 0 || s.GBWMin <= 0 || s.SRMin <= 0 ||
				s.GainMin <= 1 || s.TSettle <= 0 || s.SettleTol <= 0 {
				return false
			}
			if s.ComparatorCount != (1<<s.Bits)-2 {
				return false
			}
			if i > 0 && s.SettleTol < specs[i-1].SettleTol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
