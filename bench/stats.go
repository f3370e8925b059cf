package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the nearest-rank q-quantile of an ascending slice:
// the smallest sample with at least ⌈q·n⌉ samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tailQ is the study-latency tail percentile. Ten samples beyond it
// need at least tailMinN samples. Over runs of one workload, p95 repeats
// within about half the spread of p99 or of the highest percentile with
// ten samples beyond it, which follow the host's rarest stalls.
const (
	tailQ    = 0.95
	tailMinN = 200
)

// tail reports the study-latency tail of an ascending slice and the
// quantile it sits at. Below tailMinN samples there is no p95 with ten
// samples beyond it, and the median stands in, so the metric exists on
// every workload.
func tail(sorted []float64) (v, q float64) {
	if len(sorted) < tailMinN {
		return nearestRank(sorted, 0.5), 0.5
	}
	return nearestRank(sorted, tailQ), tailQ
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so -runs spreads read the same as any
// external check of them. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sortedCopy(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is a closed-open wall-clock interval in Unix nanoseconds.
type span struct{ start, end int64 }

func spanOf(a, b time.Time) span { return span{a.UnixNano(), b.UnixNano()} }

func (s span) len() int64 {
	if s.end <= s.start {
		return 0
	}
	return s.end - s.start
}

// clip restricts s to [lo, hi).
func (s span) clip(lo, hi int64) span {
	if s.start < lo {
		s.start = lo
	}
	if s.end > hi {
		s.end = hi
	}
	return s
}

// unionLen is the total time covered by at least one span.
func unionLen(spans []span) int64 {
	ss := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.len() > 0 {
			ss = append(ss, s)
		}
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	var total int64
	var cur span
	for i, s := range ss {
		if i == 0 || s.start > cur.end {
			total += cur.len()
			cur = s
			continue
		}
		if s.end > cur.end {
			cur.end = s.end
		}
	}
	return total + cur.len()
}

// selfTime is the part of parent that none of its children cover.
func selfTime(parent span, children []span) int64 {
	clipped := make([]span, len(children))
	for i, c := range children {
		clipped[i] = c.clip(parent.start, parent.end)
	}
	return parent.len() - unionLen(clipped)
}
