package main

import (
	"math/rand"
	"sort"

	"pipesyn/internal/service"
)

// workload is one traffic mix the benchmark drives adcsynd with. Every
// workload is a closed loop: each client sends its next request once its
// previous one returned, so a slower host lowers the load instead of
// growing a queue, and every latency scales with the host's speed.
type workload struct {
	name string
	// clients is the closed-loop client count.
	clients int
	// sequence builds the request sequence of one run seed; the clients
	// take its items in order. It is called under the loop's lock.
	sequence func(seed int64, short bool) func(k int) item
	// prefix is how many leading requests every run completes, past the
	// deadline if need be; the result digest covers exactly those, so it
	// is the same on every run of one seed.
	prefix int
	// journal runs the daemon with a job journal (-state-dir).
	journal bool
	// executors is the daemon's -executors.
	executors int
}

// item is the k-th request of a workload's sequence.
type item struct {
	Class string
	Req   service.StudyRequest
	Orig  int // index of the earlier item this one repeats exactly; -1 for a fresh study
}

// The workloads, and why each was chosen (README.md has the catalogue).
var workloads = []*workload{
	// Evaluation-bound served hybrid studies: hybrid->sim->la hold the
	// CPU, so evaluator-path changes show here.
	{
		name: "hybrid_cold", clients: 1, prefix: 8, executors: 1,
		sequence: studies(func(seed int64, k int, short bool) service.StudyRequest {
			return hybridStudy(seed, k, false, short)
		}),
	},
	// The hybrid_cold requests under racing: the only load where rungs
	// and the warm-start shrink run. A race-only change must leave
	// hybrid_cold unchanged.
	{
		name: "hybrid_race", clients: 1, prefix: 8, executors: 1,
		sequence: studies(func(seed int64, k int, short bool) service.StudyRequest {
			return hybridStudy(seed, k, true, short)
		}),
	},
	// ~1 µs evaluations, so service/core/synth/sched overhead and cache
	// churn dominate; kernel changes predict no change here.
	{
		name: "equation_flood", clients: 2, prefix: 350, executors: 1,
		sequence: studies(func(seed int64, k int, _ bool) service.StudyRequest {
			return equationStudy(seed, k)
		}),
	},
	// Admission, single-flight, journal fsyncs, cache-served repeats and
	// the yield lane together, with two studies running at once on the
	// shared pool.
	{
		name: "serve_mix", clients: 2, prefix: 100, journal: true, executors: 2,
		sequence: func(seed int64, short bool) func(int) item {
			return newMixSequence(seed, short).at
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// studies is the sequence of a workload whose every request is a fresh
// study built by req.
func studies(req func(seed int64, k int, short bool) service.StudyRequest) func(int64, bool) func(int) item {
	return func(seed int64, short bool) func(int) item {
		return func(k int) item {
			return item{Class: classStudy, Req: req(seed, k, short), Orig: -1}
		}
	}
}

// hybridStudy is the k-th study of the hybrid workloads: resolution
// cycles 10→13 bits and every study has its own seed, so no two share a
// content address. Short runs swap in the equation evaluator.
func hybridStudy(seed int64, k int, race, short bool) service.StudyRequest {
	mode := "hybrid"
	if short {
		mode = "equation"
	}
	return service.StudyRequest{
		Bits: 10 + k%4, Mode: mode, Seed: seed + int64(k),
		Evals: 16, Pattern: 8, Race: race,
	}
}

// equationStudy is the k-th equation-mode study: resolution cycles 8→14.
func equationStudy(seed int64, k int) service.StudyRequest {
	return service.StudyRequest{
		Bits: 8 + k%7, Mode: "equation", Seed: seed + int64(k),
		Evals: 180, Pattern: 90,
	}
}

// Traffic classes.
const (
	classEq    = "eq"    // a distinct equation study
	classHyb   = "hyb"   // a distinct small hybrid study
	classWarm  = "warm"  // exact repeat of a recent, finished hyb
	classDup   = "dup"   // exact repeat of the latest hyb, usually still in flight
	classYield = "yield" // the one Monte-Carlo yield job
	// classStudy marks a study of a single-class workload.
	classStudy = "study"
	// classRepeat marks the warm pass every workload ends with.
	classRepeat = "repeat"
)

// mixBlock is the class make-up of every 20 serve_mix requests: 55 % eq,
// 20 % hyb, 15 % warm and 10 % dup. Each block is a seeded shuffle of
// it, so every run sees the same class shares and only their order
// follows the seed.
var mixBlock = []string{
	classEq, classEq, classEq, classEq, classEq, classEq, classEq, classEq, classEq, classEq, classEq,
	classHyb, classHyb, classHyb, classHyb,
	classWarm, classWarm, classWarm,
	classDup, classDup,
}

const (
	// A warm request repeats a hyb between warmMinGap and warmMaxGap
	// requests back: far enough that it has finished, near enough that
	// its design points are still in the synthesis cache.
	warmMinGap, warmMaxGap = 20, 60
	// mixYieldAt is the index of the yield job, inside every run's prefix.
	mixYieldAt = 30
)

// mixSequence is the serve_mix request sequence of one seed, generated
// on demand in index order, so it does not depend on which client asks
// first. It is not safe for concurrent use.
type mixSequence struct {
	seed  int64
	short bool
	rng   *rand.Rand
	items []item
	block []string // classes left in the current block
	hybs  []int    // indices of the hyb items so far, ascending
}

func newMixSequence(seed int64, short bool) *mixSequence {
	return &mixSequence{seed: seed, short: short, rng: rand.New(rand.NewSource(seed))}
}

// at returns the k-th item. Successive hyb studies cycle through 10, 11
// and 12 bits. A warm or dup item with nothing to repeat yet becomes an
// eq item.
func (s *mixSequence) at(k int) item {
	for len(s.items) <= k {
		s.items = append(s.items, s.next())
	}
	return s.items[k]
}

func (s *mixSequence) next() item {
	k := len(s.items)
	hybMode, hybEvals, hybPattern := "hybrid", 4, 2
	yEvals, yPattern, draws := 12, 6, 200
	if s.short {
		hybMode = "equation"
		yEvals, yPattern, draws = 2, 1, 20
	}
	if k == mixYieldAt {
		return item{Class: classYield, Orig: -1, Req: service.StudyRequest{
			Bits: 10, Mode: "yield", Seed: s.seed + int64(k),
			Evals: yEvals, Pattern: yPattern, Draws: draws,
		}}
	}
	if len(s.block) == 0 {
		s.block = append([]string(nil), mixBlock...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	it := item{Class: s.block[0], Orig: -1}
	s.block = s.block[1:]
	switch it.Class {
	case classWarm:
		lo := sort.SearchInts(s.hybs, k-warmMaxGap)
		hi := sort.SearchInts(s.hybs, k-warmMinGap+1)
		if hi > lo {
			it.Orig = s.hybs[lo+s.rng.Intn(hi-lo)]
		}
	case classDup:
		if len(s.hybs) > 0 {
			it.Orig = s.hybs[len(s.hybs)-1]
		}
	}
	switch {
	case it.Orig >= 0:
		it.Req = s.items[it.Orig].Req
	case it.Class == classHyb:
		it.Req = service.StudyRequest{
			Bits: 10 + len(s.hybs)%3, Mode: hybMode, Seed: s.seed + int64(k),
			Evals: hybEvals, Pattern: hybPattern,
		}
		s.hybs = append(s.hybs, k)
	default:
		it.Class = classEq
		it.Req = equationStudy(s.seed, k)
	}
	return it
}
