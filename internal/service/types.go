// Package service is the serving layer over the synthesis engine: a job
// manager with a bounded queue and single-flight admission (manager.go),
// a stdlib-only metrics registry in Prometheus text format (metrics.go),
// and the HTTP surface the adcsynd daemon exposes (server.go).
//
// This file holds the wire types shared between the daemon and the
// adcsyn CLI's -json mode, so a study reports identically whether it ran
// over HTTP or in-process.
package service

import (
	"fmt"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/synth"
	"pipesyn/internal/yield"
)

// ParseMode maps the CLI/API mode string to the evaluator mode. Mode
// "yield" is not an evaluator — it is the Monte-Carlo sign-off lane
// layered over a hybrid study; callers route it before evaluating.
func ParseMode(s string) (hybrid.Mode, error) {
	switch s {
	case "", "hybrid":
		return hybrid.Hybrid, nil
	case "equation":
		return hybrid.EquationOnly, nil
	case "simulation":
		return hybrid.SimOnly, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want hybrid, equation, simulation, or yield)", s)
}

// StudyRequest is the POST /v1/studies body. The knobs mirror the adcsyn
// flags; zero fields take the same defaults the CLI applies.
type StudyRequest struct {
	Bits       int     `json:"bits"`
	SampleRate float64 `json:"fs,omitempty"`       // Hz, default 40e6
	VRef       float64 `json:"vref,omitempty"`     // V, default 1.0
	Mode       string  `json:"mode,omitempty"`     // hybrid|equation|simulation
	Evals      int     `json:"evals,omitempty"`    // annealing budget per MDAC
	Pattern    int     `json:"pattern,omitempty"`  // pattern-search budget per MDAC
	Restarts   int     `json:"restarts,omitempty"` // synthesis restarts per MDAC
	Seed       int64   `json:"seed,omitempty"`
	Retarget   bool    `json:"retarget,omitempty"` // chain warm starts across MDACs
	SHA        bool    `json:"sha,omitempty"`      // also synthesize the front-end S/H

	// Race turns on the successive-halving racing scheduler; RaceRungs
	// and RaceEta shape its plan (defaults 2 and 3) and are only valid
	// alongside Race. Surrogate interleaves deterministic quadratic-model
	// sizing proposals with the annealer's random moves.
	Race      bool `json:"race,omitempty"`
	RaceRungs int  `json:"raceRungs,omitempty"`
	RaceEta   int  `json:"raceEta,omitempty"`
	Surrogate bool `json:"surrogate,omitempty"`

	// Mode "yield" only: Monte-Carlo draw count (default 1000) and the
	// pass/fail ENOB spec (default bits−1).
	Draws   int     `json:"draws,omitempty"`
	MinENOB float64 `json:"minEnob,omitempty"`
}

// Yield reports whether the request asks for the Monte-Carlo sign-off
// lane: synthesize first, then sample mismatch realizations.
func (r StudyRequest) Yield() bool { return r.Mode == "yield" }

// YieldSpec translates the request's yield knobs into the engine spec.
// Zero fields take the yield.Spec defaults for the target resolution.
func (r StudyRequest) YieldSpec() yield.Spec {
	return yield.Spec{Draws: r.Draws, MinENOB: r.MinENOB}
}

// JobKey is the content address the manager single-flights, dedupes, and
// journals on. Plain studies address by core.StudyKey; yield jobs extend
// it with the canonical yield spec, so a study and a yield analysis of
// the same design never collide, while re-submitted identical yield
// requests do.
func (r StudyRequest) JobKey(opts core.Options) string {
	key := core.StudyKey(opts)
	if r.Yield() {
		key = yield.Key(key, r.Bits, r.YieldSpec())
	}
	return key
}

// Options validates the request and translates it into engine options.
// Execution knobs (workers, pool, cache, hooks) are the server's to set;
// a request only describes the study.
func (r StudyRequest) Options() (core.Options, error) {
	if r.Bits < 4 || r.Bits > 20 {
		return core.Options{}, fmt.Errorf("bits %d out of range [4, 20]", r.Bits)
	}
	if r.SampleRate < 0 || r.VRef < 0 || r.Evals < 0 || r.Pattern < 0 || r.Restarts < 0 {
		return core.Options{}, fmt.Errorf("negative knob in request")
	}
	// The budgets size the work and its memory up front (synthesis makes
	// one slot per restart), so a request cannot ask for more than a
	// machine can hold; the caps sit far above any study the CLI or the
	// figures run.
	if r.Evals > 100000 || r.Pattern > 100000 {
		return core.Options{}, fmt.Errorf("evals %d or pattern %d out of range [0, 100000]", r.Evals, r.Pattern)
	}
	if r.Restarts > 64 {
		return core.Options{}, fmt.Errorf("restarts %d out of range [0, 64]", r.Restarts)
	}
	// Yield knobs are meaningless outside the yield lane; reject rather
	// than silently ignore, so a typo'd mode can't drop a 10k-draw ask.
	if !r.Yield() && (r.Draws != 0 || r.MinENOB != 0) {
		return core.Options{}, fmt.Errorf("draws/minEnob require mode %q", "yield")
	}
	// The racing shape is likewise rejected without the racing switch —
	// a dropped "race": true would otherwise silently run the uniform
	// flow under a different content address than the caller expects.
	if !r.Race && (r.RaceRungs != 0 || r.RaceEta != 0) {
		return core.Options{}, fmt.Errorf("raceRungs/raceEta require race")
	}
	if r.RaceRungs < 0 || r.RaceRungs > 6 {
		return core.Options{}, fmt.Errorf("raceRungs %d out of range [0, 6]", r.RaceRungs)
	}
	if r.RaceEta < 0 || r.RaceEta > 16 {
		return core.Options{}, fmt.Errorf("raceEta %d out of range [0, 16]", r.RaceEta)
	}
	if r.Draws < 0 || r.Draws > 100000 {
		return core.Options{}, fmt.Errorf("draws %d out of range [0, 100000]", r.Draws)
	}
	if r.MinENOB < 0 || r.MinENOB > float64(r.Bits) {
		return core.Options{}, fmt.Errorf("minEnob %g out of range [0, bits]", r.MinENOB)
	}
	// The yield lane always synthesizes with the full hybrid evaluator —
	// its error model is derived from the simulated stage metrics.
	mode := hybrid.Hybrid
	if !r.Yield() {
		var err error
		if mode, err = ParseMode(r.Mode); err != nil {
			return core.Options{}, err
		}
	}
	return core.Options{
		Bits:       r.Bits,
		SampleRate: r.SampleRate,
		VRef:       r.VRef,
		Mode:       mode,
		Retarget:   r.Retarget,
		Race:       r.Race,
		RaceRungs:  r.RaceRungs,
		RaceEta:    r.RaceEta,
		IncludeSHA: r.SHA,
		Synth: synth.Options{
			Seed:        r.Seed,
			MaxEvals:    r.Evals,
			PatternIter: r.Pattern,
			Restarts:    r.Restarts,
			Surrogate:   r.Surrogate,
		},
	}, nil
}

// StageJSON is one costed pipeline stage of a candidate.
type StageJSON struct {
	Stage        int     `json:"stage"`
	Bits         int     `json:"bits"`
	MDACPowerW   float64 `json:"mdacPowerW"`
	SubADCPowerW float64 `json:"subAdcPowerW"`
	TotalW       float64 `json:"totalW"`
	Feasible     bool    `json:"feasible"`
}

// CandidateJSON is one enumerated configuration fully costed.
type CandidateJSON struct {
	Config      []int   `json:"config"`
	TotalPowerW float64 `json:"totalPowerW"`
	AllFeasible bool    `json:"allFeasible"`
	// Pruned marks a candidate the racing scheduler dropped at a
	// low-fidelity rung; its power was costed at a reduced budget.
	Pruned bool        `json:"pruned,omitempty"`
	Stages []StageJSON `json:"stages,omitempty"`
}

// RaceJSON is the racing scheduler's scorecard on the wire.
type RaceJSON struct {
	Rungs      int `json:"rungs"`
	Promotions int `json:"promotions"`
	Pruned     int `json:"pruned"`
}

// StudyJSON is the machine-readable study result: the daemon's response
// body and the adcsyn -json output.
type StudyJSON struct {
	Bits             int             `json:"bits"`
	SampleRateHz     float64         `json:"fsHz"`
	Mode             string          `json:"mode"`
	Best             CandidateJSON   `json:"best"`
	Candidates       []CandidateJSON `json:"candidates"`
	MDACPoints       int             `json:"mdacPoints"`
	PaperMDACClasses int             `json:"paperMdacClasses"`
	TotalEvals       int             `json:"totalEvals"`
	CacheHits        int             `json:"cacheHits"`
	CacheMisses      int             `json:"cacheMisses"`
	SHAPowerW        float64         `json:"shaPowerW,omitempty"`
	FullPowerW       float64         `json:"fullPowerW,omitempty"`
	ElapsedSeconds   float64         `json:"elapsedSeconds"`
	// Race summarizes the successive-halving scheduler's work; only
	// racing studies carry it. The surrogate counters aggregate the
	// quadratic model's proposals across every synthesis in the study.
	Race               *RaceJSON `json:"race,omitempty"`
	SurrogateProposals int       `json:"surrogateProposals,omitempty"`
	SurrogateAccepted  int       `json:"surrogateAccepted,omitempty"`
	// Behavioral is the optional closed-loop sine-test verdict (the
	// adcsyn -verify -json path fills it; the daemon leaves it nil).
	Behavioral *BehavioralJSON `json:"behavioral,omitempty"`
	// Yield is the Monte-Carlo sign-off outcome; only mode "yield" jobs
	// carry it.
	Yield *yield.Result `json:"yield,omitempty"`
}

// BehavioralJSON is the behavioral sine-test outcome for the best
// configuration.
type BehavioralJSON struct {
	ENOB   float64 `json:"enob"`
	SNDRdB float64 `json:"sndrDb"`
	SFDRdB float64 `json:"sfdrDb"`
}

// EncodeStudy flattens a completed study into its wire form. The best
// candidate carries its per-stage breakdown; the ranked list stays
// summary-only to keep responses compact.
func EncodeStudy(st *core.Study, mode hybrid.Mode, elapsed time.Duration) *StudyJSON {
	out := &StudyJSON{
		Bits:             st.Bits,
		SampleRateHz:     st.SampleRate,
		Mode:             mode.String(),
		Best:             encodeCandidate(st.Best, true),
		MDACPoints:       len(st.MDACs),
		PaperMDACClasses: st.PaperMDACClasses,
		TotalEvals:       st.TotalEvals,
		CacheHits:        st.CacheHits,
		CacheMisses:      st.CacheMisses,
		ElapsedSeconds:   elapsed.Seconds(),
	}
	for _, c := range st.Candidates {
		out.Candidates = append(out.Candidates, encodeCandidate(c, false))
	}
	if st.SHA != nil {
		out.SHAPowerW = st.SHA.Metrics.Power
		out.FullPowerW = st.FullPower(st.Best)
	}
	if st.Race != nil {
		out.Race = &RaceJSON{Rungs: st.Race.Rungs, Promotions: st.Race.Promotions, Pruned: st.Race.Pruned}
	}
	out.SurrogateProposals = st.SurrogateProposals
	out.SurrogateAccepted = st.SurrogateAccepted
	return out
}

func encodeCandidate(c core.CandidateResult, withStages bool) CandidateJSON {
	out := CandidateJSON{
		Config:      append([]int(nil), c.Config...),
		TotalPowerW: c.TotalPower,
		AllFeasible: c.AllFeasible,
		Pruned:      c.Pruned,
	}
	if withStages {
		for _, s := range c.Stages {
			out.Stages = append(out.Stages, StageJSON{
				Stage: s.Stage, Bits: s.Bits,
				MDACPowerW: s.MDACPower, SubADCPowerW: s.SubADCPower,
				TotalW: s.Total, Feasible: s.Feasible,
			})
		}
	}
	return out
}
