package core

import (
	"context"
	"reflect"
	"testing"

	"pipesyn/internal/stagespec"
)

// TestOptimizeRaceParallelMatchesSerial pins racing's half of the
// determinism contract: the rung schedule, promotions, and final study
// are bit-identical for any worker count (run under -race in CI, which
// also makes it the rung-promotion data-race probe).
func TestOptimizeRaceParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) *Study {
		o := eqOpts(12)
		o.Race = true
		o.Workers = workers
		st, err := Optimize(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	serial := mk(1)
	if serial.Race == nil || serial.Race.Rungs != 2 {
		t.Fatalf("race stats missing or wrong shape: %+v", serial.Race)
	}
	if serial.Race.Pruned == 0 {
		t.Fatal("racing pruned nothing — the schedule never fired")
	}
	for _, w := range []int{2, 8} {
		if got := mk(w); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d racing study diverged from serial", w)
		}
	}
}

// TestOptimizeRaceSavesEvals is the study-level acceptance property:
// racing must reach a fully feasible best configuration with at least
// 30%% fewer evaluator calls than the uniform flow, at equal or better
// power, and the winner must be a full-fidelity survivor.
func TestOptimizeRaceSavesEvals(t *testing.T) {
	uniform, err := Optimize(context.Background(), eqOpts(13))
	if err != nil {
		t.Fatal(err)
	}
	ro := eqOpts(13)
	ro.Race = true
	raced, err := Optimize(context.Background(), ro)
	if err != nil {
		t.Fatal(err)
	}
	if !raced.Best.AllFeasible {
		t.Fatalf("racing best is not feasible: %+v", raced.Best.Config)
	}
	if raced.Best.Pruned {
		t.Fatal("racing elected a pruned candidate as Best")
	}
	if raced.TotalEvals > uniform.TotalEvals*7/10 {
		t.Fatalf("racing spent %d evals vs uniform %d — want ≥30%% fewer",
			raced.TotalEvals, uniform.TotalEvals)
	}
	if raced.Best.TotalPower > uniform.Best.TotalPower*1.001 {
		t.Fatalf("racing best power %.3g W worse than uniform %.3g W",
			raced.Best.TotalPower, uniform.Best.TotalPower)
	}
	// The pruned flags, stats, and ranking must agree: every pruned
	// candidate ranks after every survivor, and the counts line up.
	prunedCount := 0
	sawPruned := false
	for _, c := range raced.Candidates {
		if c.Pruned {
			prunedCount++
			sawPruned = true
		} else if sawPruned {
			t.Fatal("a full-fidelity survivor ranked below a pruned candidate")
		}
	}
	if prunedCount != raced.Race.Pruned {
		t.Fatalf("%d candidates flagged pruned, stats say %d", prunedCount, raced.Race.Pruned)
	}
	if len(raced.Candidates) != len(uniform.Candidates) {
		t.Fatalf("racing dropped candidates from the report: %d vs %d",
			len(raced.Candidates), len(uniform.Candidates))
	}
}

// TestOptimizeRaceEmitsRungEvents pins the progress-event stream of
// every study flow, all of which run one rung loop: the plan first, then
// for each rung a point_start/point_done pair in key order for every
// design point the rung needs — Rung 0 outside racing, r+1 inside it —
// and, under racing only, one race_rung event closing each rung with its
// entrants, promotions and cumulative pruned count. The first rung runs
// every point, a later rung a subset of the one before, and the last
// rung exactly the survivors' points.
func TestOptimizeRaceEmitsRungEvents(t *testing.T) {
	for _, tc := range []struct {
		name     string
		retarget bool
		rungs    int // 0 = racing off
	}{
		{"uniform", false, 0},
		{"retarget", true, 0},
		{"race_2_rungs", false, 2},
		{"race_3_rungs", false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := eqOpts(12)
			o.Workers = 1 // one goroutine: the stream order is the schedule
			o.Retarget = tc.retarget
			o.Race, o.RaceRungs = tc.rungs > 0, tc.rungs
			var evs []ProgressEvent
			o.Progress = func(ev ProgressEvent) { evs = append(evs, ev) }
			st, err := Optimize(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			plan := ProgressEvent{Kind: "plan", Points: len(st.MDACs), Candidates: len(st.Candidates)}
			if len(evs) == 0 || evs[0] != plan {
				t.Fatalf("stream does not open with %+v: %+v", plan, evs)
			}
			evs = evs[1:]

			rungs := 1
			if tc.rungs > 0 {
				rungs = st.Race.Rungs
				if rungs != tc.rungs {
					t.Fatalf("%d rungs ran, want %d", rungs, tc.rungs)
				}
			}
			entrants, pruned, promotions := len(st.Candidates), 0, 0
			var ran map[int]bool
			lastDone := map[int]ProgressEvent{}
			for r := 1; r <= rungs; r++ {
				wantRung := 0
				if tc.rungs > 0 {
					wantRung = r
				}
				prev := ran
				ran = map[int]bool{}
				lastPoint := -1
				for len(evs) > 0 && evs[0].Kind == "point_start" {
					if len(evs) < 2 {
						t.Fatalf("rung %d: point_start with no point_done", r)
					}
					s, d := evs[0], evs[1]
					key := st.MDACs[s.Point].Key
					want := ProgressEvent{Kind: "point_start", Point: s.Point, Points: len(st.MDACs),
						Stage: key.Stage, Bits: key.Bits, PriorBits: key.PriorBits, Rung: wantRung}
					if s != want {
						t.Fatalf("rung %d: %+v, want %+v", r, s, want)
					}
					if d.Kind != "point_done" || d.Point != s.Point || d.Rung != wantRung {
						t.Fatalf("rung %d: %+v does not close %+v", r, d, s)
					}
					if s.Point <= lastPoint {
						t.Fatalf("rung %d: point %d ran after point %d", r, s.Point, lastPoint)
					}
					if prev != nil && !prev[s.Point] {
						t.Fatalf("rung %d ran point %d, which rung %d did not", r, s.Point, r-1)
					}
					ran[s.Point], lastPoint = true, s.Point
					lastDone[s.Point] = d
					evs = evs[2:]
				}
				if r == 1 && len(ran) != len(st.MDACs) {
					t.Fatalf("first rung ran %d of %d points", len(ran), len(st.MDACs))
				}
				if tc.rungs == 0 {
					continue
				}
				if len(evs) == 0 {
					t.Fatalf("rung %d has no race_rung event", r)
				}
				ev := evs[0]
				evs = evs[1:]
				if ev.Kind != "race_rung" || ev.Rung != r || ev.Candidates != entrants {
					t.Fatalf("rung %d closed by %+v, want race_rung with %d entrants", r, ev, entrants)
				}
				if r < rungs && (ev.Promoted == 0 || ev.Promoted >= entrants) || r == rungs && ev.Promoted != 0 {
					t.Fatalf("rung %d of %d promoted %d of %d", r, rungs, ev.Promoted, entrants)
				}
				if r < rungs {
					pruned += entrants - ev.Promoted
					promotions += ev.Promoted
					entrants = ev.Promoted
				}
				if ev.Pruned != pruned {
					t.Fatalf("rung %d reports %d pruned, want %d", r, ev.Pruned, pruned)
				}
			}
			if len(evs) != 0 {
				t.Fatalf("events after the last rung: %+v", evs)
			}
			if tc.rungs > 0 && (st.Race.Pruned != pruned || st.Race.Promotions != promotions) {
				t.Fatalf("stats %+v, events say %d pruned and %d promotions", *st.Race, pruned, promotions)
			}

			// The last rung ran exactly the survivors' points, and every
			// record holds the result of the last rung its point ran at.
			d := o.WithDefaults()
			adc := stagespec.ADCSpec{Bits: d.Bits, SampleRate: d.SampleRate, VRef: d.VRef, Process: d.Process}
			survivors := map[int]bool{}
			for _, c := range st.Candidates {
				if c.Pruned {
					continue
				}
				specs, err := stagespec.Translate(adc, c.Config)
				if err != nil {
					t.Fatal(err)
				}
				for _, sp := range specs {
					for p, rec := range st.MDACs {
						if rec.Key == pointOf(sp) {
							survivors[p] = true
						}
					}
				}
			}
			if !reflect.DeepEqual(ran, survivors) {
				t.Fatalf("last rung ran points %v, survivors need %v", ran, survivors)
			}
			for p, rec := range st.MDACs {
				if d := lastDone[p]; d.Power != rec.Result.Metrics.Power || d.Evals != rec.Result.Evals {
					t.Fatalf("point %d: last point_done %+v, record %+v", p, d, rec.Result.Metrics)
				}
			}
		})
	}
}
