package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"time"

	"pipesyn/internal/service"
)

// tracer stamps every watched job's events with the time they arrive
// through Job.Subscribe and samples the manager's queue depth every
// 100 ms. One goroutine owns its state until stop returns.
type tracer struct {
	man      *service.Manager
	add      chan subscription
	quit     chan struct{}
	done     chan struct{}
	events   map[string][]stamped // by job id
	depthMax int
}

type stamped struct {
	at int64 // Unix ns
	ev service.Event
}

type subscription struct {
	id     string
	at     int64
	replay []service.Event
	live   <-chan service.Event
	cancel func()
}

func startTracer(man *service.Manager) *tracer {
	t := &tracer{
		man:    man,
		add:    make(chan subscription),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		events: make(map[string][]stamped),
	}
	go t.loop()
	return t
}

// watch subscribes to a job's event stream. Events recorded before the
// subscription are stamped with its time.
func (t *tracer) watch(job *service.Job) {
	replay, live, cancel := job.Subscribe()
	t.add <- subscription{id: job.ID, at: time.Now().UnixNano(), replay: replay, live: live, cancel: cancel}
}

// stop ends the tracer once every watched job is terminal and returns
// after its goroutine has exited.
func (t *tracer) stop() {
	close(t.quit)
	<-t.done
}

func (t *tracer) loop() {
	defer close(t.done)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	const fixed = 3 // add, quit, tick; subscriptions follow
	cases := []reflect.SelectCase{
		{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(t.add)},
		{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(t.quit)},
		{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(tick.C)},
	}
	var subs []subscription
	t.sample()
	for {
		i, v, ok := reflect.Select(cases)
		now := time.Now().UnixNano()
		switch i {
		case 0:
			s := v.Interface().(subscription)
			for _, ev := range s.replay {
				t.events[s.id] = append(t.events[s.id], stamped{s.at, ev})
			}
			subs = append(subs, s)
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.live)})
		case 1:
			// Every watched job is terminal, so each live channel closes
			// after its remaining events.
			for _, s := range subs {
				for ev := range s.live {
					t.events[s.id] = append(t.events[s.id], stamped{now, ev})
				}
				s.cancel()
			}
			return
		case 2:
			t.sample()
		default:
			j := i - fixed
			if !ok {
				subs[j].cancel()
				subs = append(subs[:j], subs[j+1:]...)
				cases = append(cases[:i], cases[i+1:]...)
				continue
			}
			t.events[subs[j].id] = append(t.events[subs[j].id], stamped{now, v.Interface().(service.Event)})
		}
	}
}

func (t *tracer) sample() {
	if d := t.man.Snapshot().QueueDepth; d > t.depthMax {
		t.depthMax = d
	}
}

// jobTrace is one executed job's span tree, rebuilt from its record and
// its stamped events.
type jobTrace struct {
	rec    *record
	run    span
	points []pointSpan
	rungs  []int64 // race_rung arrival times
}

type pointSpan struct {
	span
	rung, point int
	feasible    bool
}

// jobTraces rebuilds the span tree of every distinct job the records
// executed (deduped records share their original's job).
func jobTraces(recs []*record, events map[string][]stamped) []*jobTrace {
	var out []*jobTrace
	seen := map[string]bool{}
	for _, r := range recs {
		if !r.ok() || seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		jt := &jobTrace{rec: r, run: spanOf(r.Started, r.Finished)}
		type pk struct{ rung, point int }
		open := map[pk]int64{}
		for _, s := range events[r.ID] {
			p := s.ev.Progress
			if p == nil {
				continue
			}
			switch p.Kind {
			case "point_start":
				open[pk{p.Rung, p.Point}] = s.at
			case "point_done":
				k := pk{p.Rung, p.Point}
				if st, ok := open[k]; ok {
					jt.points = append(jt.points, pointSpan{span: span{st, s.at}.clip(jt.run.start, jt.run.end),
						rung: p.Rung, point: p.Point, feasible: p.Feasible})
					delete(open, k)
				}
			case "race_rung":
				jt.rungs = append(jt.rungs, s.at)
			}
		}
		out = append(out, jt)
	}
	return out
}

func (jt *jobTrace) pointSpans() []span {
	ss := make([]span, len(jt.points))
	for i, p := range jt.points {
		ss[i] = p.span
	}
	return ss
}

// covered is how much of a record's latency the layers cover: submit,
// queue wait plus run (core self and point union together fill the run),
// and fetch. What is left is mostly the client's wake-up
// between the job finishing and its fetch (load.notify_s_p50).
func covered(r *record) (lat, cov int64) {
	job := spanOf(r.Sent, r.FetchEnd)
	parts := []span{
		spanOf(r.Sent, r.Submitted),
		spanOf(r.Created, r.Finished),
		spanOf(r.FetchStart, r.FetchEnd),
	}
	for i := range parts {
		parts[i] = parts[i].clip(job.start, job.end)
	}
	return job.len(), unionLen(parts)
}

// spanOut is one line of the -trace-out file.
type spanOut struct {
	Job    string `json:"job"`
	Class  string `json:"class"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// writeSpans writes every traced record's span tree as a JSON array,
// times in ns from origin.
func writeSpans(path string, origin time.Time, recs []*record, traces []*jobTrace) error {
	byID := map[string]*jobTrace{}
	for _, jt := range traces {
		byID[jt.rec.ID] = jt
	}
	o := origin.UnixNano()
	var out []spanOut
	add := func(r *record, name, parent string, s span) {
		out = append(out, spanOut{Job: r.ID, Class: r.Class, Name: name, Parent: parent, Start: s.start - o, End: s.end - o})
	}
	for _, r := range recs {
		if !r.ok() {
			continue
		}
		add(r, "job", "", spanOf(r.Sent, r.FetchEnd))
		add(r, "submit", "job", spanOf(r.Sent, r.Submitted))
		add(r, "queue", "job", spanOf(r.Created, r.Started))
		add(r, "run", "job", spanOf(r.Started, r.Finished))
		if jt := byID[r.ID]; jt != nil && jt.rec == r {
			for _, p := range jt.points {
				add(r, fmt.Sprintf("point r%d.p%d", p.rung, p.point), "run", p.span)
			}
		}
		add(r, "notify", "job", spanOf(r.Finished, r.FetchStart))
		add(r, "fetch", "job", spanOf(r.FetchStart, r.FetchEnd))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	blob, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
