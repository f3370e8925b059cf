package main

import (
	"math"
	"testing"
)

func TestTailIsP95FromTwoHundredSamples(t *testing.T) {
	for _, tc := range []struct {
		n       int
		v, q    float64
		comment string
	}{
		{1, 1, 0.5, "a single sample"},
		{20, 10, 0.5, "no tail: the median stands in"},
		{199, 100, 0.5, "still under ten samples beyond p95"},
		{200, 190, 0.95, "ten samples beyond p95"},
		{1000, 950, 0.95, "p95, not the highest percentile with ten beyond"},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if v, q := tail(xs); v != tc.v || q != tc.q {
			t.Errorf("tail of %d samples (%s) = %v at q %v; want %v at %v", tc.n, tc.comment, v, q, tc.v, tc.q)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, tc := range []struct{ q, want float64 }{
		{0.01, 1}, {0.25, 1}, {0.5, 2}, {0.51, 3}, {0.95, 4}, {1, 4},
	} {
		if got := nearestRank(xs, tc.q); got != tc.want {
			t.Errorf("nearestRank(%v) = %v; want %v", tc.q, got, tc.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank of no samples = %v; want 0", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles = %v %v %v; want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
}

// A job span with overlapping, nested and overhanging children, as the
// parallel design points of one study produce.
func TestSelfTimeOverOverlappingSpanTree(t *testing.T) {
	run := span{0, 100}
	points := []span{
		{10, 30},
		{20, 50}, // overlaps the first
		{25, 28}, // nested in both
		{60, 70},
		{95, 120}, // overhangs the parent's end
		{-5, 2},   // starts before the parent
		{80, 80},  // empty
	}
	// Covered inside the parent: [0,2) [10,50) [60,70) [95,100) = 2+40+10+5.
	if got := selfTime(run, points); got != 100-57 {
		t.Errorf("selfTime = %d; want 43", got)
	}
	// Unclipped union: [-5,2) [10,50) [60,70) [95,120) = 7+40+10+25.
	if got := unionLen(points); got != 82 {
		t.Errorf("unionLen = %d; want 82", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("unionLen of nothing = %d; want 0", got)
	}
	// Busy time counts every overlap; the union does not.
	var busy int64
	for _, p := range points {
		busy += p.clip(run.start, run.end).len()
	}
	if busy != 20+30+3+10+5+2 {
		t.Errorf("busy = %d; want 70", busy)
	}
}
