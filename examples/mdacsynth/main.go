// Mdacsynth sizes the first-stage 4-bit MDAC of a 13-bit 40 MSPS pipeline:
// spec translation, hybrid synthesis, and the resulting transistor sizes
// and audited performance.
package main

import (
	"context"
	"fmt"
	"log"

	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/pdk"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/synth"
	"pipesyn/internal/units"
)

func main() {
	adc := stagespec.ADCSpec{Bits: 13, SampleRate: 40e6, VRef: 1.0}
	specs, err := stagespec.Translate(adc, enum.Config{4, 3, 2})
	if err != nil {
		log.Fatal(err)
	}
	sp := specs[0]
	fmt.Println("block spec for stage 1 (4-bit) of the 13-bit 40 MSPS 4-3-2 pipeline:")
	fmt.Printf("  gain %g×, β=%.3f, Cs=%s, Cf=%s, CL=%s\n",
		sp.Gain, sp.Beta, units.Format(sp.CSample, "F"),
		units.Format(sp.CFeed, "F"), units.Format(sp.CLoad, "F"))
	fmt.Printf("  settle to %.2g in %s, GBW ≥ %s, SR ≥ %s, gain ≥ %.0f, swing ≥ ±%.2f V\n",
		sp.SettleTol, units.Format(sp.TSettle+sp.TSlew, "s"),
		units.Format(sp.GBWMin, "Hz"), units.Format(sp.SRMin, "V/s"),
		sp.GainMin, sp.SwingMin)

	proc := pdk.TSMC025()
	res, err := synth.Synthesize(context.Background(), sp, proc, synth.Options{
		Seed: 3, MaxEvals: 150, PatternIter: 80, Mode: hybrid.Hybrid,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := res.Sizing
	fmt.Printf("\nsynthesized two-stage Miller OTA (%d evaluations, feasible: %v):\n", res.Evals, res.Feasible)
	fmt.Printf("  input pair   W/L = %s / %s\n", units.Format(s.W1, "m"), units.Format(s.L1, "m"))
	fmt.Printf("  mirror load  W/L = %s / %s\n", units.Format(s.W3, "m"), units.Format(s.L3, "m"))
	fmt.Printf("  second stage W/L = %s / %s\n", units.Format(s.W5, "m"), units.Format(s.L5, "m"))
	fmt.Printf("  IRef=%s (tail ×%.1f, out ×%.1f), Cc=%s, Rz=%s\n",
		units.Format(s.IRef, "A"), s.KTail, s.K2,
		units.Format(s.CC, "F"), units.Format(s.RZ, "Ω"))
	m := res.Metrics
	fmt.Printf("\naudited performance (hybrid evaluation):\n")
	fmt.Printf("  power %s, amp gain %.0f, loop crossover %s, PM %.1f°\n",
		units.Format(m.Power, "W"), m.AmpGain, units.Format(m.CrossoverHz, "Hz"), m.PhaseMargin)
	fmt.Printf("  settled in %s (window %s), static error %.2g\n",
		units.Format(m.SettleTime, "s"), units.Format(sp.TSettle+sp.TSlew, "s"), m.StaticError)
	if len(res.Report.Failures) > 0 {
		fmt.Println("  outstanding violations:", res.Report.Failures)
	}
}
