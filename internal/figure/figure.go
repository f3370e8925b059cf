// Package figure pins the settings that regenerate the paper's figures.
// cmd/figgen and the root package's figure benchmarks both build their
// studies here, so the two drivers render the same results, and the
// committed figures/ directory is what `figgen` prints at its default
// seed.
package figure

import (
	"context"

	"pipesyn/internal/core"
	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/pdk"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/synth"
)

// Seed is the seed the committed figures were rendered with.
const Seed = 7

// Bits are the target resolutions of the Fig. 2/3 sweep. The last one is
// the 13-bit study that Fig. 1 and the behavioral check draw on.
var Bits = []int{10, 11, 12, 13}

// Study returns the base options of the figure studies: hybrid evaluation
// at 40 MS/s with 150 annealing and 80 pattern-search evaluations per
// MDAC, and two restarts, which keep candidate ordering stable against
// annealing noise at a few seconds per MDAC. core.Sweep sets Bits.
func Study(seed int64) core.Options {
	return core.Options{
		SampleRate: 40e6, Mode: hybrid.Hybrid,
		Synth: synth.Options{Seed: seed, MaxEvals: 150, PatternIter: 80, Restarts: 2},
	}
}

// Retarget runs the §4 setup-time experiment: a cold synthesis of the
// second-stage MDAC of a 12-bit 3-2-2-2-2 pipeline, then a warm-started
// retarget of that stage to 20 % more GBW and slew rate. It takes its
// annealing and pattern-search budgets from budget; the experiment fixes
// its own seeds and runs one restart each.
func Retarget(ctx context.Context, budget synth.Options) (cold, warm *synth.Result, err error) {
	proc := pdk.TSMC025()
	adc := stagespec.ADCSpec{Bits: 12, SampleRate: 40e6, VRef: 1}
	specs, err := stagespec.Translate(adc, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		return nil, nil, err
	}
	spec := specs[1]
	cold, err = synth.Synthesize(ctx, spec, proc, synth.Options{
		Seed: 21, MaxEvals: budget.MaxEvals, PatternIter: budget.PatternIter, Mode: hybrid.Hybrid,
	})
	if err != nil {
		return nil, nil, err
	}
	spec.GBWMin *= 1.2
	spec.SRMin *= 1.2
	warm, err = synth.Synthesize(ctx, spec, proc, synth.Options{
		Seed: 22, MaxEvals: budget.MaxEvals, PatternIter: budget.PatternIter,
		Mode: hybrid.Hybrid, WarmStart: &cold.Sizing,
	})
	return cold, warm, err
}
