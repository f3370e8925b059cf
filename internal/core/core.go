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
	// configurations before spending simulation time on them. The flow
	// without Race is the same rung loop on a one-rung, full-budget plan.
	// Supersedes Retarget's cross-point warm chaining when both are set,
	// so Retarget leaves the study key under Race. Joins the study key
	// (with RaceRungs/RaceEta) only when on.
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
		Surrogate                    bool
		// The racing shape keys only under Race, and Retarget only
		// without it (racing ignores it), so a dormant knob never splits
		// two identical studies.
		Race               bool
		RaceRungs, RaceEta int
	}
	kf := keyFields{synth.KeyVersion, opts.Bits, opts.SampleRate, opts.VRef, opts.Process.Name, int(opts.Mode),
		opts.Constraints, opts.Retarget && !opts.Race, opts.IncludeSHA,
		s.Seed, s.MaxEvals, s.PatternIter, s.Restarts,
		synth.InitTemp, synth.CoolRate, synth.PenaltyW, s.Surrogate, false, 0, 0}
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
// The flow is one loop over a fidelity plan. Without Race the plan is a
// single full-budget rung: every design point is synthesized once, and
// under Retarget its warm-start sources run first as DAG dependencies.
// With Race it is race.Plan's successive-halving schedule. Each rung
// runs the design points its active candidates need on sched.Run; one
// costing function ranks the candidates for promotion and builds the
// final report.
//
// Determinism holds for any worker count: a design point's seed is
// fixed by its sorted-key index (identical across rungs, so a rung is a
// budget change, not a reseed), and every reduction and promotion
// happens in index order on the calling goroutine.
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
			specOf[pointOf(sp)] = sp
		}
	}

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
	keyIdx := make(map[DesignPoint]int, len(keys))
	for i, k := range keys {
		keyIdx[k] = i
	}
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

	plan := []race.Rung{{Divisor: 1}}
	if opts.Race {
		plan = race.Plan(len(cands), opts.RaceRungs, opts.RaceEta)
		study.Race = &RaceStats{Rungs: len(plan)}
	}
	// Canonical() applies the synthesis defaults without the warm-start
	// shrink, giving the full-fidelity budget the rung divisors scale.
	canon := opts.Synth.Canonical()
	results := make([]*synth.Result, len(keys)) // latest result per key
	warmFrom := make([]*DesignPoint, len(keys))
	banks := make(map[int]subadc.Bank, len(keys))
	pruned := make([]bool, len(cands))

	// cost prices candidate ci from the latest design-point results. The
	// comparator bank depends only on the design point, so it is designed
	// once per key and shared across the candidates and rungs that use it.
	cost := func(ci int) (CandidateResult, error) {
		cr := CandidateResult{Config: cands[ci], AllFeasible: true, Pruned: pruned[ci]}
		for _, sp := range specsByCand[ci] {
			i := keyIdx[pointOf(sp)]
			res := results[i]
			bank, ok := banks[i]
			if !ok {
				var err error
				bank, err = subadc.Design(sp, opts.Process, opts.SampleRate)
				if err != nil {
					return cr, fmt.Errorf("core: %s stage %d sub-ADC: %w", cands[ci], sp.Stage, err)
				}
				banks[i] = bank
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
		return cr, nil
	}

	opts.emit(ProgressEvent{Kind: "plan", Points: len(keys), Candidates: len(cands)})
	active := make([]int, len(cands))
	for i := range active {
		active[i] = i
	}
	for r, rung := range plan {
		// Only racing numbers its rungs, in events and error messages.
		rungNo, where := 0, "core: "
		if opts.Race {
			rungNo, where = r+1, fmt.Sprintf("core: rung %d ", r+1)
		}
		// The design points the active candidates need, in sorted-key
		// order. Every candidate is active on the first rung, so there a
		// node's index is its key index, which warmIdx's edges name.
		need := make([]bool, len(keys))
		for _, ci := range active {
			for _, sp := range specsByCand[ci] {
				need[keyIdx[pointOf(sp)]] = true
			}
		}
		var nodes []sched.Node
		for i, key := range keys {
			if !need[i] {
				continue
			}
			nodes = append(nodes, sched.Node{
				Deps:  warmIdx[i],
				Label: fmt.Sprintf("design point stage %d (%d-bit)", key.Stage, key.Bits),
				Run: func(ctx context.Context) error {
					sOpts := opts.Synth
					sOpts.Mode = opts.Mode
					sOpts.Seed = opts.Synth.Seed + int64(i+1)
					sOpts.Pool = pool
					if rung.Divisor > 1 {
						sOpts.MaxEvals = max(canon.MaxEvals/rung.Divisor, 1)
						sOpts.PatternIter = max(canon.PatternIter/rung.Divisor, 1)
					}
					if r > 0 {
						// A promoted point continues from its own best
						// sizing one rung down; its WarmFrom stays nil.
						if prev := results[i]; prev.Feasible {
							sOpts.WarmStart = &prev.Sizing
						}
					}
					for _, j := range warmIdx[i] {
						if prev := results[j]; prev.Feasible {
							sOpts.WarmStart = &prev.Sizing
							k := keys[j]
							warmFrom[i] = &k
							break
						}
					}
					opts.emit(ProgressEvent{Kind: "point_start", Point: i, Points: len(keys),
						Stage: key.Stage, Bits: key.Bits, PriorBits: key.PriorBits, Rung: rungNo})
					res, err := synth.Synthesize(ctx, specOf[key], opts.Process, sOpts)
					if err != nil {
						return fmt.Errorf("%ssynthesis of stage %d (%d-bit): %w", where, key.Stage, key.Bits, err)
					}
					results[i] = res
					opts.emit(ProgressEvent{Kind: "point_done", Point: i, Points: len(keys),
						Stage: key.Stage, Bits: key.Bits, PriorBits: key.PriorBits, Rung: rungNo,
						CacheHit: res.CacheHit, Feasible: res.Feasible,
						Power: res.Metrics.Power, Evals: res.Evals})
					return nil
				}})
		}
		if err := sched.Run(ctx, pool, nodes); err != nil {
			return nil, err
		}
		for i := range keys {
			if need[i] {
				accountResult(study, results[i], opts.Synth.Cache != nil)
			}
		}

		entrants, promoted := len(active), 0
		if rung.Keep > 0 {
			standings := make([]race.Standing, len(active))
			for si, ci := range active {
				cr, err := cost(ci)
				if err != nil {
					return nil, err
				}
				standings[si] = race.Standing{Index: ci, Feasible: cr.AllFeasible, Cost: cr.TotalPower}
			}
			next := race.Promote(standings, rung.Keep)
			for _, ci := range active {
				pruned[ci] = true
			}
			for _, ci := range next {
				pruned[ci] = false
			}
			promoted = len(next)
			study.Race.Promotions += promoted
			study.Race.Pruned += entrants - promoted
			active = next
		}
		if opts.Race {
			opts.emit(ProgressEvent{Kind: "race_rung", Rung: rungNo,
				Candidates: entrants, Promoted: promoted, Pruned: study.Race.Pruned})
		}
	}

	// Every key ran on the first rung, so the record set is complete; a
	// pruned candidate's points stay at the last fidelity they ran at.
	for i, key := range keys {
		study.MDACs = append(study.MDACs, MDACRecord{Key: key, Result: results[i], WarmFrom: warmFrom[i]})
	}
	for ci := range cands {
		cr, err := cost(ci)
		if err != nil {
			return nil, err
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

// pointOf names the design point a stage spec belongs to.
func pointOf(sp stagespec.MDACSpec) DesignPoint {
	return DesignPoint{Stage: sp.Stage, Bits: sp.Bits, PriorBits: sp.PriorBits}
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
