package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pipesyn/internal/service"
)

// record is one study request the load generator sent and what came
// back. Times are wall-clock.
type record struct {
	K     int
	Class string
	Req   service.StudyRequest
	// Orig is the earlier request this one repeats exactly (warm and dup
	// requests, warm-pass repeats); nil for a fresh study.
	Orig *record
	// sent is closed once the request's submit has returned; a repeat is
	// sent only after its original's submit, so it can single-flight
	// onto it.
	sent chan struct{}

	Sent, Submitted, FetchStart, FetchEnd time.Time
	Code                                  int
	ID                                    string
	Deduped                               bool
	done                                  <-chan struct{} // the job's Done channel; the record keeps no Job alive
	err                                   error
	// problem is a single-flight violation seen at submit time.
	problem string

	// From the fetched job status.
	State                      service.State
	Created, Started, Finished time.Time
	TotalEvals                 int
	BestPowerW                 float64
	Feasible                   bool
	Race                       *service.RaceJSON
	YieldDraws                 int
	Design                     [sha256.Size]byte // hash of the canonical JSON of {best, candidates}
}

func newRecord(k int, class string, req service.StudyRequest, orig *record) *record {
	return &record{K: k, Class: class, Req: req, Orig: orig, sent: make(chan struct{})}
}

func (r *record) ok() bool { return r.err == nil && r.State == service.StateDone }

func (r *record) latency() time.Duration { return r.FetchEnd.Sub(r.Sent) }

// fill copies what the benchmark needs from a fetched job status.
func (r *record) fill(st service.JobStatus) {
	r.State = st.State
	r.Created = st.Created
	if st.Started != nil {
		r.Started = *st.Started
	}
	if st.Finished != nil {
		r.Finished = *st.Finished
	}
	if st.State != service.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", r.ID, st.State, st.Error)
		return
	}
	res := st.Result
	if res == nil {
		r.err = fmt.Errorf("job %s done without a result", r.ID)
		return
	}
	r.TotalEvals = res.TotalEvals
	r.BestPowerW = res.Best.TotalPowerW
	r.Feasible = res.Best.AllFeasible
	r.Race = res.Race
	if res.Yield != nil {
		r.YieldDraws = res.Yield.Draws
	}
	blob, err := json.Marshal(struct {
		Best       service.CandidateJSON   `json:"best"`
		Candidates []service.CandidateJSON `json:"candidates"`
	}{res.Best, res.Candidates})
	if err != nil {
		r.err = err
		return
	}
	r.Design = sha256.Sum256(blob)
}

// loadGen drives one daemon over HTTP and awaits completion on the
// in-process job.
type loadGen struct {
	d  *daemon
	hc *http.Client
	tr *tracer // nil when untraced
}

// send waits for r's original, if any, to be submitted, then submits r.
// A repeat admitted fresh means its original was already terminal; which
// job a deduped repeat joined is checked once the phase is over.
func (lg *loadGen) send(r *record) {
	defer close(r.sent)
	if r.Orig != nil {
		<-r.Orig.sent
	}
	r.Sent = time.Now()
	sub, code, err := lg.d.submit(lg.hc, r.Req)
	r.Submitted = time.Now()
	r.Code = code
	switch {
	case err != nil:
		r.err = fmt.Errorf("submit: %w", err)
		return
	case code != http.StatusOK && code != http.StatusAccepted:
		r.err = fmt.Errorf("submit: HTTP %d", code)
		return
	}
	r.ID, r.Deduped = sub.ID, sub.Deduped
	job, ok := lg.d.man.Get(sub.ID)
	if !ok {
		r.err = fmt.Errorf("job %s unknown right after submit", sub.ID)
		return
	}
	r.done = job.Done()
	if o := r.Orig; o != nil && o.done != nil && !r.Deduped {
		select {
		case <-o.done:
		default:
			r.problem = fmt.Sprintf("admitted fresh as %s while the original %s was in flight", r.ID, o.ID)
		}
	}
	if lg.tr != nil && !r.Deduped {
		lg.tr.watch(job)
	}
}

// finish waits for r's job and fetches its result.
func (lg *loadGen) finish(r *record) {
	if r.done == nil {
		return
	}
	<-r.done
	lg.fetch(r)
}

// fetch GETs the result of r's terminal job.
func (lg *loadGen) fetch(r *record) {
	r.FetchStart = time.Now()
	st, err := lg.d.status(lg.hc, r.ID)
	r.FetchEnd = time.Now()
	if err != nil {
		r.err = err
		return
	}
	r.fill(st)
}

// closed runs w's closed loop until the deadline, and at least until the
// first prefix requests of the sequence are done. It returns the records
// in sequence order.
func (lg *loadGen) closed(w *workload, seed int64, dur time.Duration, prefix int, short bool) []*record {
	var mu sync.Mutex
	var recs []*record
	at := w.sequence(seed, short)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := len(recs)
				if k >= prefix && !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				it := at(k)
				var orig *record
				if it.Orig >= 0 {
					orig = recs[it.Orig]
				}
				r := newRecord(k, it.Class, it.Req, orig)
				recs = append(recs, r)
				mu.Unlock()
				lg.send(r)
				lg.finish(r)
			}
		}()
	}
	wg.Wait()
	return recs
}

// warmPass sends n exact repeats, one at a time on the otherwise idle
// daemon, cycling over the last warmSources completed fresh studies.
// Every repeat must be served from the synthesis cache.
func (lg *loadGen) warmPass(recs []*record, n int) []*record {
	var src []*record
	for i := len(recs) - 1; i >= 0 && len(src) < warmSources; i-- {
		if o := recs[i]; o.ok() && o.Orig == nil && o.Class != classYield {
			src = append(src, o)
		}
	}
	if len(src) == 0 {
		return nil
	}
	out := make([]*record, n)
	for i := range out {
		o := src[i%len(src)]
		r := newRecord(i, classRepeat, o.Req, o)
		lg.send(r)
		lg.finish(r)
		out[i] = r
	}
	return out
}
