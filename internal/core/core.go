// Package core implements the paper's contribution: designer-driven
// topology optimization for pipelined ADCs. It glues the whole stack
// together exactly as §2–§4 describe:
//
//  1. enumerate the stage-resolution candidates for the target resolution
//     (package enum),
//  2. translate converter-level specs into per-stage MDAC block specs with
//     the designer's analytical system model (package stagespec),
//  3. synthesize each *distinct* MDAC once with the cell-level sizing
//     engine driven by hybrid evaluation (packages synth/hybrid), reusing
//     earlier results as warm starts — the paper's "retargeting" that cut
//     setup from weeks to a day,
//  4. add the flash sub-ADC power (package subadc) and rank candidates by
//     total leading-stage power (Fig. 1/Fig. 2), and
//  5. distil the optimum-configuration decision rules across target
//     resolutions (Fig. 3).
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pipesyn/internal/adcsim"
	"pipesyn/internal/dsp"
	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/race"
	"pipesyn/internal/sched"
	"pipesyn/internal/sha"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/subadc"
	"pipesyn/internal/synth"
)

// Options configures a topology-optimization study.
type Options struct {
	Bits        int
	SampleRate  float64
	VRef        float64
	Process     *pdk.Process
	Mode        hybrid.Mode
	Constraints enum.Constraints
	Synth       synth.Options
	// Retarget chains warm starts across the distinct MDACs (the paper's
	// weeks→day productivity lever). It trades evaluation count for
	// solution quality: a seed inherited from a tighter spec can leave a
	// relaxed stage over-designed under a short retarget schedule, so the
	// power-comparison studies default to independent cold syntheses and
	// the retargeting benchmark exercises this flag explicitly.
	Retarget bool
	// Race turns on the successive-halving racing scheduler (DESIGN.md
	// §5.9): every enumeration candidate first runs at a cheap
	// low-fidelity synthesis budget (MaxEvals and PatternIter divided by
	// RaceEta per rung gap), the top half by feasibility-then-cost is
	// promoted rung by rung, and only the survivors pay full fidelity —
	// warm-started from their own low-fidelity best sizing, which also
	// triggers the retargeting budget shrink. The mechanized analogue of
	// the paper's designer discarding clearly losing stage-resolution
	// configurations before spending simulation time on them. Supersedes
	// Retarget's cross-point warm chaining when both are set. Joins the
	// study key (with RaceRungs/RaceEta) only when on.
	Race bool
	// RaceRungs and RaceEta shape the racing plan: the number of fidelity
	// rungs (default 2) and the budget ratio between adjacent rungs
	// (default 3 — empirically the point where the low-fidelity basins
	// are good enough that warm-started survivors match or beat the
	// uniform flow's final power while well over 30% of the evaluator
	// calls are saved). Ignored unless Race is set.
	RaceRungs int
	RaceEta   int
	// IncludeSHA also synthesizes the front-end sample-and-hold
	// amplifier. Its power is identical across candidates (the paper
	// excludes it from the comparison figures for that reason) and is
	// reported separately on the Study.
	IncludeSHA bool
	// Workers bounds the concurrent synthesis workers. Design points,
	// their restarts, and (in a Sweep) the per-resolution studies all
	// draw from the same budget. 0 = GOMAXPROCS, 1 = fully serial. Every
	// worker count produces bit-identical studies: per-key seeds are
	// fixed by sorted key order, warm-start sources are scheduled as DAG
	// dependencies, and all reductions happen in key order.
	Workers int
	// Pool supplies an existing shared worker budget instead of Workers
	// (Sweep threads its pool through every study).
	Pool *sched.Pool
	// Progress, when set, receives study-level progress events: the plan
	// (how many design points), each design point starting and
	// finishing, and the S/H synthesis. Design points run on worker
	// goroutines, so the callback must be safe for concurrent use and
	// must not block. Evaluation-granule progress rides the separate
	// synth.Options.Progress seam; neither influences the study result.
	Progress func(ev ProgressEvent)
}

// ProgressEvent is one study-level observation delivered to
// Options.Progress. Kind says which fields are meaningful:
//
//   - "plan":        Points and Candidates are set — the study's shape.
//   - "point_start": Point (0-based), Stage, Bits, PriorBits.
//   - "point_done":  the above plus CacheHit, Feasible, Power, Evals.
//   - "sha_start", "sha_done": the front-end S/H synthesis (IncludeSHA).
//   - "race_rung": Rung (1-based), Candidates (entrants), Promoted,
//     Pruned — one racing rung finished and its promotion was decided.
//   - "yield_chunk": Done, Draws, Pass — Monte-Carlo yield-lane progress
//     (emitted by the serving layer, not by Optimize itself).
type ProgressEvent struct {
	Kind       string  `json:"kind"`
	Point      int     `json:"point,omitempty"`
	Points     int     `json:"points,omitempty"`
	Candidates int     `json:"candidates,omitempty"`
	Stage      int     `json:"stage,omitempty"`
	Bits       int     `json:"bits,omitempty"`
	PriorBits  int     `json:"priorBits,omitempty"`
	CacheHit   bool    `json:"cacheHit,omitempty"`
	Feasible   bool    `json:"feasible,omitempty"`
	Power      float64 `json:"powerW,omitempty"`
	Evals      int     `json:"evals,omitempty"`
	Done       int     `json:"done,omitempty"`
	Draws      int     `json:"draws,omitempty"`
	Pass       int     `json:"pass,omitempty"`
	Rung       int     `json:"rung,omitempty"`
	Promoted   int     `json:"promoted,omitempty"`
	Pruned     int     `json:"pruned,omitempty"`
}

// emit delivers a progress event when a sink is configured.
func (o *Options) emit(ev ProgressEvent) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}

func (o *Options) fillDefaults() {
	if o.VRef == 0 {
		o.VRef = 1.0
	}
	if o.Process == nil {
		o.Process = pdk.TSMC025()
	}
	if o.SampleRate == 0 {
		o.SampleRate = 40e6
	}
	if o.RaceRungs == 0 {
		o.RaceRungs = 2
	}
	if o.RaceEta == 0 {
		o.RaceEta = 3
	}
}

// WithDefaults returns a copy with the study-shaping defaults applied
// (reference, process, sample rate) — the same normalization Optimize
// and StudyKey perform, exported for layers that interpret a study
// downstream (the Monte-Carlo yield lane derives its error model from
// the same process and reference the synthesis actually used).
func (o Options) WithDefaults() Options {
	o.fillDefaults()
	return o
}

// StageResult is the costed outcome of one pipeline stage in a candidate.
type StageResult struct {
	Stage, Bits int
	MDACPower   float64
	SubADCPower float64
	Total       float64
	Feasible    bool
	Sizing      opamp.Amp
	Metrics     hybrid.Metrics
}

// CandidateResult is one enumerated configuration fully costed.
type CandidateResult struct {
	Config      enum.Config
	Stages      []StageResult
	TotalPower  float64 // sum over the leading stages (the paper's Fig. 2 metric)
	AllFeasible bool
	// Pruned marks a candidate the racing scheduler eliminated at a
	// low-fidelity rung; its Stages and TotalPower reflect the reduced
	// budget it was last costed at, and it always ranks below every
	// full-fidelity survivor. Never set outside Options.Race.
	Pruned bool
}

// DesignPoint identifies one exact MDAC design point: stage position, raw
// resolution, and the resolution already in hand at its input. Two
// candidates sharing all three fields see identical block specs, so one
// synthesis serves both. (The paper counts reuse classes by stage and
// resolution only — "eleven MDACs" for 13 bits; the exact points number
// twenty, and Study reports both.)
type DesignPoint struct {
	Stage, Bits, PriorBits int
}

// MDACRecord tracks one synthesized MDAC design point.
type MDACRecord struct {
	Key      DesignPoint
	Result   *synth.Result
	WarmFrom *DesignPoint // nil = cold start
}

// Study is a completed topology optimization for one target resolution.
type Study struct {
	Bits       int
	SampleRate float64
	Candidates []CandidateResult // sorted ascending by TotalPower
	Best       CandidateResult
	MDACs      []MDACRecord
	// PaperMDACClasses is the paper's reuse count: distinct
	// (stage, resolution) pairs across the candidates (11 for 13 bits).
	PaperMDACClasses int
	TotalEvals       int
	// CacheHits / CacheMisses count how many of this study's syntheses
	// (design points plus the S/H, when included) were replayed from the
	// content-addressed cache versus searched fresh. Both stay zero when
	// no cache is configured on Options.Synth.Cache.
	CacheHits, CacheMisses int
	// SHA is the synthesized front-end sample-and-hold (nil unless
	// Options.IncludeSHA); its power adds to every candidate equally.
	SHA *synth.Result
	// Race summarizes the successive-halving scheduler's work (nil
	// unless Options.Race).
	Race *RaceStats
	// SurrogateProposals / SurrogateAccepted aggregate the quadratic
	// surrogate's counters across every synthesis in the study (0 unless
	// Options.Synth.Surrogate).
	SurrogateProposals int
	SurrogateAccepted  int
}

// RaceStats is the racing scheduler's scorecard: how many fidelity
// rungs ran, how many candidate promotions were granted across them,
// and how many candidates were pruned before full fidelity.
type RaceStats struct {
	Rungs      int
	Promotions int
	Pruned     int
}

// FullPower returns a candidate's leading-stage power plus the shared
// front-end S/H power when one was synthesized.
func (st *Study) FullPower(c CandidateResult) float64 {
	p := c.TotalPower
	if st.SHA != nil {
		p += st.SHA.Metrics.Power
	}
	return p
}

// StudyKey computes the content address of a whole study: a SHA-256
// over every input that shapes the result — the evaluator generation
// (synth.KeyVersion), resolution, rate, reference, process, evaluation
// mode, enumeration constraints, the retarget/S-H switches, and the
// canonicalized synthesis options (the same normalization the per-MDAC
// cache key uses; see synth.Options.Canonical). Execution knobs
// (Workers, Pool, Cache, hooks) are excluded, so two requests that must
// produce bit-identical studies get the same key. The serving layer
// single-flights concurrent identical submissions on it, and journal
// recovery fails a job whose key no longer matches.
func StudyKey(opts Options) string {
	opts.fillDefaults()
	opts.Constraints.FillDefaults()
	s := opts.Synth.Canonical()
	type keyFields struct {
		Version                      int
		Bits                         int
		SampleRate, VRef             float64
		Process                      string
		Mode                         int
		Constraints                  enum.Constraints
		Retarget, IncludeSHA         bool
		Seed                         int64
		MaxEvals, PatternIter        int
		Restarts                     int
		InitTemp, CoolRate, PenaltyW float64
		Topology                     int
		Surrogate                    bool
		// The racing shape keys only under Race, so a dormant
		// RaceRungs/RaceEta never splits two identical studies.
		Race               bool
		RaceRungs, RaceEta int
	}
	kf := keyFields{synth.KeyVersion, opts.Bits, opts.SampleRate, opts.VRef, opts.Process.Name, int(opts.Mode),
		opts.Constraints, opts.Retarget, opts.IncludeSHA,
		s.Seed, s.MaxEvals, s.PatternIter, s.Restarts,
		synth.InitTemp, synth.CoolRate, synth.PenaltyW, int(s.Topology),
		s.Surrogate, false, 0, 0}
	if opts.Race {
		kf.Race = true
		kf.RaceRungs = opts.RaceRungs
		kf.RaceEta = opts.RaceEta
	}
	blob, err := json.Marshal(kf)
	if err != nil {
		// Value fields only; Marshal cannot fail. Loud beats silent.
		panic(fmt.Sprintf("core: study key marshal: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Optimize runs the full designer-driven flow for one target resolution.
//
// Cancelling ctx aborts the study within one evaluation granule and
// returns ctx.Err(); a panic inside a synthesis worker surfaces as a
// *sched.PanicError naming the design point instead of crashing the
// process.
func Optimize(ctx context.Context, opts Options) (*Study, error) {
	opts.fillDefaults()
	adc := stagespec.ADCSpec{
		Bits: opts.Bits, SampleRate: opts.SampleRate,
		VRef: opts.VRef, Process: opts.Process,
	}
	cands, err := enum.Candidates(opts.Bits, opts.Constraints)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: no pipeline candidates for %d bits under constraints %+v", opts.Bits, opts.Constraints)
	}

	// Translate every candidate and index the exact design points. Two
	// candidates share a synthesis only when stage position, resolution
	// AND prior resolution coincide, because all three shape the block
	// spec (settling tolerance, capacitor budget, load).
	specsByCand := make([][]stagespec.MDACSpec, len(cands))
	specOf := map[DesignPoint]stagespec.MDACSpec{}
	for i, cfg := range cands {
		specs, err := stagespec.Translate(adc, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", cfg, err)
		}
		specsByCand[i] = specs
		for _, sp := range specs {
			specOf[DesignPoint{Stage: sp.Stage, Bits: sp.Bits, PriorBits: sp.PriorBits}] = sp
		}
	}

	// Synthesize each design point once, optionally chaining warm starts:
	// first the same resolution one stage earlier, then the previous
	// resolution at the same stage.
	keys := make([]DesignPoint, 0, len(specOf))
	for k := range specOf {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Bits != b.Bits {
			return a.Bits < b.Bits
		}
		return a.PriorBits < b.PriorBits
	})
	study := &Study{
		Bits: opts.Bits, SampleRate: opts.SampleRate,
		PaperMDACClasses: len(enum.DistinctMDACs(cands)),
	}
	pool := opts.Pool
	if pool == nil {
		pool = sched.NewPool(opts.Workers)
	}

	// Warm-start candidates for key i, in deterministic preference order:
	// first the same resolution one stage earlier, then the previous
	// resolution at the same stage — considering only keys that precede i
	// in sorted order, exactly the results the serial flow would have in
	// hand. Under Retarget these become the DAG edges: a design point
	// dispatches once its potential warm sources are done, so the
	// parallel schedule picks the same seed the serial one does.
	warmIdx := make([][]int, len(keys))
	if opts.Retarget && !opts.Race {
		for i, key := range keys {
			for j := 0; j < i; j++ {
				if prev := keys[j]; prev.Stage == key.Stage-1 && prev.Bits == key.Bits {
					warmIdx[i] = append(warmIdx[i], j)
				}
			}
			for j := 0; j < i; j++ {
				if prev := keys[j]; prev.Stage == key.Stage && prev.Bits == key.Bits-1 {
					warmIdx[i] = append(warmIdx[i], j)
				}
			}
		}
	}

	opts.emit(ProgressEvent{Kind: "plan", Points: len(keys), Candidates: len(cands)})
	var results map[DesignPoint]*synth.Result
	var prunedCand map[int]bool
	if opts.Race {
		var err error
		results, prunedCand, err = runRace(ctx, &opts, study, keys, specOf, specsByCand, cands, pool)
		if err != nil {
			return nil, err
		}
	} else {
		resArr := make([]*synth.Result, len(keys))
		warmFrom := make([]*DesignPoint, len(keys))
		nodes := make([]sched.Node, len(keys))
		for i := range keys {
			i := i
			key := keys[i]
			deps := warmIdx[i]
			nodes[i] = sched.Node{
				Deps:  deps,
				Label: fmt.Sprintf("design point stage %d (%d-bit)", key.Stage, key.Bits),
				Run: func(ctx context.Context) error {
					sOpts := opts.Synth
					sOpts.Mode = opts.Mode
					sOpts.Seed = opts.Synth.Seed + int64(i+1)
					sOpts.Pool = pool
					if opts.Retarget {
						for _, j := range deps {
							if prev := resArr[j]; prev != nil && prev.Feasible {
								sOpts.WarmStart = prev.Sizing
								k := keys[j]
								warmFrom[i] = &k
								break
							}
						}
					}
					opts.emit(ProgressEvent{Kind: "point_start", Point: i, Points: len(keys),
						Stage: key.Stage, Bits: key.Bits, PriorBits: key.PriorBits})
					res, err := synth.Synthesize(ctx, specOf[key], opts.Process, sOpts)
					if err != nil {
						return fmt.Errorf("core: synthesis of stage %d (%d-bit): %w", key.Stage, key.Bits, err)
					}
					resArr[i] = res
					opts.emit(ProgressEvent{Kind: "point_done", Point: i, Points: len(keys),
						Stage: key.Stage, Bits: key.Bits, PriorBits: key.PriorBits,
						CacheHit: res.CacheHit, Feasible: res.Feasible,
						Power: res.Metrics.Power, Evals: res.Evals})
					return nil
				}}
		}
		if err := sched.Run(ctx, pool, nodes); err != nil {
			return nil, err
		}
		results = map[DesignPoint]*synth.Result{}
		for i, key := range keys {
			res := resArr[i]
			results[key] = res
			accountResult(study, res, opts.Synth.Cache != nil)
			study.MDACs = append(study.MDACs, MDACRecord{Key: key, Result: res, WarmFrom: warmFrom[i]})
		}
	}

	// Cost every candidate from the shared design-point results. The
	// comparator bank depends only on the design point, so it is designed
	// once per key and shared across the candidates that contain it.
	banks := make(map[DesignPoint]subadc.Bank, len(keys))
	for i, cfg := range cands {
		cr := CandidateResult{Config: cfg, AllFeasible: true, Pruned: prunedCand[i]}
		for _, sp := range specsByCand[i] {
			key := DesignPoint{Stage: sp.Stage, Bits: sp.Bits, PriorBits: sp.PriorBits}
			res := results[key]
			bank, ok := banks[key]
			if !ok {
				var err error
				bank, err = subadc.Design(sp, opts.Process, opts.SampleRate)
				if err != nil {
					return nil, fmt.Errorf("core: %s stage %d sub-ADC: %w", cfg, sp.Stage, err)
				}
				banks[key] = bank
			}
			sr := StageResult{
				Stage: sp.Stage, Bits: sp.Bits,
				MDACPower:   res.Metrics.Power,
				SubADCPower: bank.TotalPower,
				Total:       res.Metrics.Power + bank.TotalPower,
				Feasible:    res.Feasible,
				Sizing:      res.Sizing,
				Metrics:     res.Metrics,
			}
			cr.Stages = append(cr.Stages, sr)
			cr.TotalPower += sr.Total
			cr.AllFeasible = cr.AllFeasible && sr.Feasible
		}
		study.Candidates = append(study.Candidates, cr)
	}
	sort.Slice(study.Candidates, func(i, j int) bool {
		a, b := study.Candidates[i], study.Candidates[j]
		// Full-fidelity survivors outrank race-pruned candidates — a
		// pruned power number was costed at a reduced budget and is not
		// comparable — then fully feasible candidates outrank partially
		// infeasible ones.
		if a.Pruned != b.Pruned {
			return !a.Pruned
		}
		if a.AllFeasible != b.AllFeasible {
			return a.AllFeasible
		}
		return a.TotalPower < b.TotalPower
	})
	study.Best = study.Candidates[0]

	if opts.IncludeSHA {
		// The stage-1 sampling capacitor is position-budgeted, hence
		// identical across candidates; any candidate's first stage works
		// as the S/H load.
		sOpts := opts.Synth
		sOpts.Mode = opts.Mode
		sOpts.Seed = opts.Synth.Seed + 7919
		sOpts.Pool = pool
		opts.emit(ProgressEvent{Kind: "sha_start"})
		res, err := sha.Synthesize(ctx, adc, specsByCand[0][0].CSample, opts.Process, sOpts)
		if err != nil {
			return nil, fmt.Errorf("core: S/H synthesis: %w", err)
		}
		opts.emit(ProgressEvent{Kind: "sha_done", CacheHit: res.CacheHit,
			Feasible: res.Feasible, Power: res.Metrics.Power, Evals: res.Evals})
		study.SHA = res
		accountResult(study, res, opts.Synth.Cache != nil)
	}
	return study, nil
}

// accountResult folds one completed synthesis into the study-level
// accounting: evaluator spend, cache traffic, surrogate counters.
func accountResult(st *Study, res *synth.Result, cacheOn bool) {
	st.TotalEvals += res.Evals
	st.SurrogateProposals += res.SurrogateProposals
	st.SurrogateAccepted += res.SurrogateAccepted
	if cacheOn {
		if res.CacheHit {
			st.CacheHits++
		} else {
			st.CacheMisses++
		}
	}
}

// runRace executes the successive-halving schedule: every rung
// synthesizes the design points the still-active candidates need at
// that rung's reduced budget, ranks the candidates by
// feasibility-then-cost, and promotes the top half into the next rung;
// the final rung runs at full fidelity, each survivor's points
// warm-started from their own lower-fidelity best sizing (racing's
// WarmFrom is the point itself, so MDAC records carry nil).
//
// Determinism matches the uniform path's contract: per-point seeds are
// fixed by the global sorted-key index (identical across rungs, so a
// rung is a budget change, not a reseed), every reduction and promotion
// happens in index order, and the returned maps are bit-identical for
// any worker count. It returns the latest result per design point and
// the set of candidate indices that were pruned before full fidelity.
func runRace(ctx context.Context, opts *Options, study *Study, keys []DesignPoint,
	specOf map[DesignPoint]stagespec.MDACSpec, specsByCand [][]stagespec.MDACSpec,
	cands []enum.Config, pool *sched.Pool) (map[DesignPoint]*synth.Result, map[int]bool, error) {

	// Canonical() applies the synthesis defaults without the warm-start
	// shrink, giving the full-fidelity budget the rung divisors scale.
	canon := opts.Synth.Canonical()
	plan := race.Plan(len(cands), opts.RaceRungs, opts.RaceEta)
	study.Race = &RaceStats{Rungs: len(plan)}
	pointOf := func(sp stagespec.MDACSpec) DesignPoint {
		return DesignPoint{Stage: sp.Stage, Bits: sp.Bits, PriorBits: sp.PriorBits}
	}

	active := make([]int, len(cands))
	for i := range active {
		active[i] = i
	}
	results := make(map[DesignPoint]*synth.Result, len(keys))
	banks := make(map[DesignPoint]subadc.Bank, len(keys))
	pruned := make(map[int]bool)
	cacheOn := opts.Synth.Cache != nil

	for r, rung := range plan {
		entrants := len(active)
		// The design points the surviving candidates still need, in the
		// global sorted-key order every worker count walks identically.
		needSet := make(map[DesignPoint]bool)
		for _, ci := range active {
			for _, sp := range specsByCand[ci] {
				needSet[pointOf(sp)] = true
			}
		}
		needed := make([]int, 0, len(needSet))
		for i, key := range keys {
			if needSet[key] {
				needed = append(needed, i)
			}
		}

		resArr := make([]*synth.Result, len(needed))
		errArr := make([]error, len(needed))
		if err := pool.ForEach(ctx, len(needed), func(j int) {
			i := needed[j]
			key := keys[i]
			sOpts := opts.Synth
			sOpts.Mode = opts.Mode
			sOpts.Seed = opts.Synth.Seed + int64(i+1)
			sOpts.Pool = pool
			sOpts.MaxEvals = canon.MaxEvals / rung.Divisor
			if sOpts.MaxEvals < 1 {
				sOpts.MaxEvals = 1
			}
			sOpts.PatternIter = canon.PatternIter / rung.Divisor
			if sOpts.PatternIter < 1 {
				sOpts.PatternIter = 1
			}
			if r > 0 {
				// Promotion fidelity: continue from this point's own best
				// sizing one rung down. Every needed key ran in the prior
				// rung (the active set only shrinks), so the lookup is a
				// completed result, never a data race.
				if prev := results[key]; prev != nil && prev.Feasible {
					sOpts.WarmStart = prev.Sizing
				}
			}
			opts.emit(ProgressEvent{Kind: "point_start", Point: i, Points: len(keys),
				Stage: key.Stage, Bits: key.Bits, PriorBits: key.PriorBits, Rung: r + 1})
			res, err := synth.Synthesize(ctx, specOf[key], opts.Process, sOpts)
			if err != nil {
				errArr[j] = fmt.Errorf("core: rung %d synthesis of stage %d (%d-bit): %w",
					r+1, key.Stage, key.Bits, err)
				return
			}
			resArr[j] = res
			opts.emit(ProgressEvent{Kind: "point_done", Point: i, Points: len(keys),
				Stage: key.Stage, Bits: key.Bits, PriorBits: key.PriorBits, Rung: r + 1,
				CacheHit: res.CacheHit, Feasible: res.Feasible,
				Power: res.Metrics.Power, Evals: res.Evals})
		}); err != nil {
			return nil, nil, err
		}
		for _, err := range errArr {
			if err != nil {
				return nil, nil, err
			}
		}
		for j, i := range needed {
			results[keys[i]] = resArr[j]
			accountResult(study, resArr[j], cacheOn)
		}

		promotedN := 0
		if rung.Keep > 0 {
			standings := make([]race.Standing, len(active))
			for si, ci := range active {
				st := race.Standing{Index: ci, Feasible: true}
				for _, sp := range specsByCand[ci] {
					key := pointOf(sp)
					res := results[key]
					bank, ok := banks[key]
					if !ok {
						var err error
						bank, err = subadc.Design(sp, opts.Process, opts.SampleRate)
						if err != nil {
							return nil, nil, fmt.Errorf("core: %s stage %d sub-ADC: %w", cands[ci], sp.Stage, err)
						}
						banks[key] = bank
					}
					st.Cost += res.Metrics.Power + bank.TotalPower
					st.Feasible = st.Feasible && res.Feasible
				}
				standings[si] = st
			}
			next := race.Promote(standings, rung.Keep)
			nextSet := make(map[int]bool, len(next))
			for _, ci := range next {
				nextSet[ci] = true
			}
			for _, ci := range active {
				if !nextSet[ci] {
					pruned[ci] = true
				}
			}
			promotedN = len(next)
			study.Race.Promotions += len(next)
			study.Race.Pruned += len(active) - len(next)
			active = next
		}
		opts.emit(ProgressEvent{Kind: "race_rung", Rung: r + 1,
			Candidates: entrants, Promoted: promotedN, Pruned: study.Race.Pruned})
	}

	// Every key was synthesized at rung 0 (all candidates start active),
	// so the record set is complete; pruned candidates' points stay at
	// the last fidelity they were costed at.
	for _, key := range keys {
		study.MDACs = append(study.MDACs, MDACRecord{Key: key, Result: results[key]})
	}
	return results, pruned, nil
}

// Sweep runs studies across target resolutions (the paper's 10–13 bit
// exploration, Fig. 2). The per-resolution studies are independent, so
// they run concurrently under one shared worker budget; each study is
// still bit-identical to its serial run, and errors surface for the
// lowest-index resolution that failed.
func Sweep(ctx context.Context, bits []int, base Options) ([]*Study, error) {
	pool := base.Pool
	if pool == nil {
		pool = sched.NewPool(base.Workers)
	}
	out := make([]*Study, len(bits))
	errs := make([]error, len(bits))
	if err := pool.ForEach(ctx, len(bits), func(i int) {
		o := base
		o.Bits = bits[i]
		o.Pool = pool
		st, err := Optimize(ctx, o)
		if err != nil {
			errs[i] = fmt.Errorf("core: %d-bit study: %w", bits[i], err)
			return
		}
		out[i] = st
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Rule is one row of the Fig. 3 decision table.
type Rule struct {
	Bits      int
	Best      enum.Config
	FirstBits int
	LastBits  int
}

// DeriveRules summarizes a sweep into the paper's optimum-candidate rules.
func DeriveRules(studies []*Study) []Rule {
	rules := make([]Rule, 0, len(studies))
	for _, st := range studies {
		cfg := st.Best.Config
		rules = append(rules, Rule{
			Bits:      st.Bits,
			Best:      cfg,
			FirstBits: cfg[0],
			LastBits:  cfg[len(cfg)-1],
		})
	}
	return rules
}

// BehavioralCheck closes the loop: it builds a behavioral converter from
// the study's best configuration, injects the synthesized static error and
// the kT/C noise implied by the stage capacitors, runs a coherent sine
// test, and reports the ENOB. A sound synthesis should land within a
// fraction of a bit of the target.
func BehavioralCheck(study *Study, opts Options, n int) (dsp.SpectralMetrics, error) {
	opts.fillDefaults()
	full, err := study.Best.Config.WithTail(study.Bits)
	if err != nil {
		return dsp.SpectralMetrics{}, err
	}
	conv, err := adcsim.New(full, opts.VRef, 1234)
	if err != nil {
		return dsp.SpectralMetrics{}, err
	}
	adc := stagespec.ADCSpec{Bits: study.Bits, SampleRate: study.SampleRate, VRef: opts.VRef, Process: opts.Process}
	specs, err := stagespec.Translate(adc, study.Best.Config)
	if err != nil {
		return dsp.SpectralMetrics{}, err
	}
	for i, sr := range study.Best.Stages {
		m := conv.Stages[i]
		m.GainError = -sr.Metrics.StaticError // loop-gain shortfall compresses the residue
		m.NoiseRMS = math.Sqrt(opts.Process.KTOverC(specs[i].CSample))
		if err := conv.SetStage(i, m); err != nil {
			return dsp.SpectralMetrics{}, err
		}
	}
	fSig, _ := dsp.CoherentBin(study.SampleRate, study.SampleRate/17, n)
	samples := conv.SineTest(study.SampleRate, fSig, n, 0.95)
	return dsp.SineTestMetrics(samples, study.SampleRate)
}
