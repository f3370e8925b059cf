package main

import (
	"testing"
)

func mixItems(seed int64, n int) []item {
	at := newMixSequence(seed, false).at
	out := make([]item, n)
	for k := range out {
		out[k] = at(k)
	}
	return out
}

func TestMixSequenceIsSeeded(t *testing.T) {
	a, b := mixItems(7, 400), mixItems(7, 400)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("the same seed gave two different items at %d: %+v and %+v", k, a[k], b[k])
		}
	}
	c := mixItems(8, 400)
	sameClasses := true
	for k := range a {
		sameClasses = sameClasses && a[k].Class == c[k].Class
	}
	if sameClasses {
		t.Error("seeds 7 and 8 give the same class sequence")
	}
}

func TestMixSequenceShape(t *testing.T) {
	const n = 401 // the yield job and twenty blocks
	for seed := int64(1); seed <= 20; seed++ {
		s := mixItems(seed, n)
		count := map[string]int{}
		lastHyb := -1
		reqs := map[any]int{}
		for k, it := range s {
			count[it.Class]++
			switch it.Class {
			case classYield:
				if k != mixYieldAt {
					t.Fatalf("seed %d: yield job at %d; want %d", seed, k, mixYieldAt)
				}
			case classHyb, classEq:
				if it.Orig != -1 {
					t.Fatalf("seed %d: fresh %s %d repeats %d", seed, it.Class, k, it.Orig)
				}
				if prev, ok := reqs[it.Req]; ok {
					t.Fatalf("seed %d: fresh %s %d repeats the request of %d", seed, it.Class, k, prev)
				}
				reqs[it.Req] = k
				if it.Class == classHyb {
					lastHyb = k
				}
			case classWarm:
				o := s[it.Orig]
				if gap := k - it.Orig; o.Class != classHyb || gap < warmMinGap || gap > warmMaxGap || it.Req != o.Req {
					t.Fatalf("seed %d: warm %d repeats %d (%s, %d back)", seed, k, it.Orig, o.Class, gap)
				}
			case classDup:
				if it.Orig != lastHyb || it.Req != s[lastHyb].Req {
					t.Fatalf("seed %d: dup %d repeats %d, not the latest hyb %d", seed, k, it.Orig, lastHyb)
				}
			default:
				t.Fatalf("seed %d: item %d has class %q", seed, k, it.Class)
			}
		}
		// Every block of 20 holds 4 hyb; warm and dup fall back to eq
		// only while nothing is old enough to repeat.
		if count[classYield] != 1 || count[classHyb] != (n-1)/20*4 {
			t.Fatalf("seed %d: %d yield jobs and %d hyb; want 1 and %d", seed, count[classYield], count[classHyb], (n-1)/20*4)
		}
		if count[classWarm] < (n/20-4)*3 || count[classDup] < (n/20-1)*2 {
			t.Fatalf("seed %d: only %d warm and %d dup in %d items", seed, count[classWarm], count[classDup], n)
		}
	}
}
