package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/sched"
	"pipesyn/internal/sim"
	"pipesyn/internal/synth"
	"pipesyn/internal/yield"
)

// State is a job's position in the lifecycle: queued → running →
// done | failed | cancelled. Terminal states never change.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state can still change.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one line of a job's NDJSON progress stream. Seq increases by
// one per event within a job, so a consumer can detect gaps. Progress
// carries the study-level payload on kind "progress"; Result rides the
// terminal "done" event. A job re-enqueued from the journal after a
// crash opens its stream with kind "recovered" instead of "queued".
type Event struct {
	Seq      int                 `json:"seq"`
	JobID    string              `json:"job"`
	Kind     string              `json:"kind"` // queued|recovered|started|progress|done|failed|cancelled
	State    State               `json:"state"`
	Progress *core.ProgressEvent `json:"progress,omitempty"`
	Error    string              `json:"error,omitempty"`
	Result   *StudyJSON          `json:"result,omitempty"`
}

// Job is one submitted study. All mutable fields are guarded by mu; the
// exported accessors snapshot them.
type Job struct {
	ID  string
	Key string // job content address (JobKey) — the single-flight identity
	// StudyKey is the synthesis content address (core.StudyKey). It
	// equals Key for plain studies; yield jobs extend it with the
	// canonical spec, so both are reported for cross-node debugging.
	StudyKey string
	// Owner is the cluster node that admitted (or took over) the job;
	// empty outside cluster mode.
	Owner   string
	Req     StudyRequest
	Created time.Time

	mu       sync.Mutex
	state    State
	err      error
	result   *StudyJSON
	started  time.Time
	finished time.Time
	evals    int64
	events   []Event
	subs     map[int]chan Event
	nextSub  int
	cancel   context.CancelFunc // set while running
	done     chan struct{}      // closed on terminal transition
}

// JobStatus is the wire form of a job's current state. Owner and
// StudyKey make cross-node job lookup debuggable: a cluster operator can
// see which node ran the job and which synthesis content address it
// resolves to, whatever entry node answered the GET.
type JobStatus struct {
	ID       string       `json:"id"`
	Key      string       `json:"key"`
	StudyKey string       `json:"studyKey,omitempty"`
	Owner    string       `json:"owner,omitempty"`
	State    State        `json:"state"`
	Request  StudyRequest `json:"request"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	Evals    int64        `json:"evals"`
	Error    string       `json:"error,omitempty"`
	Result   *StudyJSON   `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Key: j.Key, StudyKey: j.StudyKey, Owner: j.Owner,
		State: j.state, Request: j.Req,
		Created: j.Created, Evals: j.evals, Result: j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State reports the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// appendEvent records and broadcasts one event. Slow subscribers do not
// stall the engine: a full subscriber channel drops the event for that
// subscriber only (the buffer is far larger than any study's event
// count, so this only bites a consumer that stopped reading).
func (j *Job) appendEvent(kind string, fill func(*Event)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := Event{Seq: len(j.events), JobID: j.ID, Kind: kind, State: j.state}
	if fill != nil {
		fill(&ev)
	}
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe returns the events recorded so far plus a live channel for
// the rest. The channel is closed once the job is terminal and all
// events are delivered. The returned cancel is idempotent and must be
// called when the consumer stops reading.
func (j *Job) Subscribe() (replay []Event, live <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append(replay, j.events...)
	ch := make(chan Event, 1024)
	if j.state.Terminal() {
		close(ch)
		return replay, ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	var once sync.Once
	return replay, ch, func() {
		once.Do(func() {
			j.mu.Lock()
			if c, ok := j.subs[id]; ok {
				delete(j.subs, id)
				close(c)
			}
			j.mu.Unlock()
		})
	}
}

// begin transitions queued → running; false means the job went terminal
// first (cancelled while queued) and must not run.
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// Errors returned by Submit; the HTTP layer maps them to status codes.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrDraining  = errors.New("service: draining, not accepting jobs")
	ErrNotFound  = errors.New("service: no such job")
)

// Config sizes a Manager.
type Config struct {
	// Workers bounds the shared synthesis pool (0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds the admission queue (default 16). A full queue
	// rejects new submissions with ErrQueueFull — backpressure instead
	// of unbounded goroutines.
	QueueCap int
	// Executors is how many studies run concurrently (default 1; each
	// study already fans out internally on the shared pool).
	Executors int
	// JobTimeout bounds one study's wall clock (0 = unlimited).
	JobTimeout time.Duration
	// Cache is the shared content-addressed synthesis cache (nil = none).
	Cache *synth.Cache
	// Metrics receives counters and evaluation latencies (nil = a
	// private registry nobody scrapes).
	Metrics *Metrics
	// EvalHook is threaded to synth.Options.EvalHook on every job — the
	// same fault-injection/stall seam the engine's robustness tests
	// use, here so service tests can gate a job mid-run. Nil in
	// production.
	EvalHook func(ctx context.Context, eval int) error
	// Journal is the durable job WAL (nil = in-memory only). When set,
	// call Recover before Start so jobs admitted before a crash are
	// replayed rather than lost.
	Journal *Journal
	// Retain bounds how many terminal jobs stay queryable (default 256).
	// Older terminal jobs are evicted — from the ring AND the job table,
	// so a long-running daemon's memory stays proportional to Retain
	// plus the active set, not to total traffic.
	Retain int
	// RetainAge additionally evicts terminal jobs older than this
	// (0 = no age bound).
	RetainAge time.Duration
	// DefaultRace turns the successive-halving racing scheduler on for
	// every submitted study that did not ask for racing itself (the
	// daemon's -race-default). Normalization happens at admission, before
	// key computation and journaling, so dedup, recovery, and cluster
	// handoff all see the normalized request. In cluster mode every node
	// must agree on this flag, like the rest of the ring configuration.
	DefaultRace bool
	// NodeID is this node's cluster identity (its advertised base URL).
	// Empty outside cluster mode. Stamped on every job as its owner and
	// journaled with submit/start records.
	NodeID string
	// Lease has no effect: cluster job leases are set by
	// cluster.Config.LeaseDuration and travel only in the cluster's
	// replicate messages.
	//
	// Deprecated: kept only so existing callers still compile.
	Lease time.Duration
}

// Manager owns the job table, the bounded admission queue, and the
// executor goroutines that run studies on one shared sched.Pool.
type Manager struct {
	cfg     Config
	pool    *sched.Pool
	metrics *Metrics

	queue chan *Job

	mu        sync.Mutex
	jobs      map[string]*Job
	byKey     map[string]*Job // queued/running job per study key (single-flight)
	terminals []*Job          // retention ring, oldest first; members of jobs
	avgJobNS  float64         // EWMA of completed-job wall time (drives Retry-After)
	nextID    int
	draining  bool
	started   bool // set by Start; readiness = started && !draining

	loopCtx  context.Context
	stopLoop context.CancelFunc
	wg       sync.WaitGroup
}

// NewManager builds a stopped manager; Start launches the executors.
func NewManager(cfg Config) *Manager {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:      cfg,
		pool:     sched.NewPool(cfg.Workers),
		metrics:  cfg.Metrics,
		queue:    make(chan *Job, cfg.QueueCap),
		jobs:     make(map[string]*Job),
		byKey:    make(map[string]*Job),
		loopCtx:  ctx,
		stopLoop: cancel,
	}
}

// Metrics returns the registry the manager reports into.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Start launches the executor goroutines and marks the manager ready:
// callers that journal must Recover first, so Ready implies the journal
// has been replayed.
func (m *Manager) Start() {
	m.mu.Lock()
	m.started = true
	m.mu.Unlock()
	for i := 0; i < m.cfg.Executors; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				select {
				case <-m.loopCtx.Done():
					return
				case job := <-m.queue:
					m.runJob(job)
				}
			}
		}()
	}
}

// RecoveryError is the typed reason a journaled job could not be
// re-enqueued after a crash: its request no longer validates, its
// content address no longer matches, or the journal entry is missing
// the request altogether. The job is finalized failed with this error
// so the outcome is queryable instead of silently dropped.
type RecoveryError struct {
	JobID  string
	Reason string
}

func (e *RecoveryError) Error() string {
	return fmt.Sprintf("service: job %s unrecoverable after restart: %s", e.JobID, e.Reason)
}

// RecoveryStats summarizes one journal replay.
type RecoveryStats struct {
	Records   int // decodable journal records replayed
	Dropped   int // torn or corrupt lines skipped (expected after a crash)
	Recovered int // queued/running jobs re-enqueued for execution
	Failed    int // unrecoverable entries finalized failed (*RecoveryError)
	Restored  int // terminal jobs restored into the retention ring
}

// Recover replays the configured journal into the job table. Call it
// after NewManager and before Start (it assumes no concurrent use):
// terminal jobs are restored with their results, jobs that were queued
// or running when the process died are re-enqueued behind a "recovered"
// event — their content-addressed StudyKey means the re-run replays
// from the synthesis cache — and entries that no longer validate are
// finalized failed with a *RecoveryError. The journal is compacted to
// the reconstructed table before returning. With no journal configured
// Recover is a no-op.
func (m *Manager) Recover() (RecoveryStats, error) {
	var stats RecoveryStats
	jn := m.cfg.Journal
	if jn == nil {
		return stats, nil
	}
	recs, dropped, err := jn.replay()
	stats.Dropped = dropped
	if err != nil {
		return stats, err
	}
	stats.Records = len(recs)

	// Fold the log: last writer wins per job, submit order preserved.
	type folded struct {
		submit  journalRecord
		state   State
		errStr  string
		result  *StudyJSON
		final   time.Time
		evicted bool
	}
	var order []string
	byID := make(map[string]*folded)
	for _, rec := range recs {
		if rec.Op == "submit" {
			if _, ok := byID[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			byID[rec.ID] = &folded{submit: rec, state: StateQueued}
			continue
		}
		f, ok := byID[rec.ID]
		if !ok {
			stats.Dropped++ // start/final/evict without a submit
			continue
		}
		switch rec.Op {
		case "start":
			f.state = StateRunning
		case "final":
			f.state, f.errStr, f.result, f.final = rec.State, rec.Error, rec.Result, rec.Time
		case "evict":
			f.evicted = true
		default:
			stats.Dropped++
		}
	}

	// Replay in submit order, whatever order the file holds, so the
	// queue and the retention ring come back as they were submitted.
	slices.SortFunc(order, func(a, b string) int {
		return submitOrder(byID[a].submit.Created, a, byID[b].submit.Created, b)
	})
	type pending struct {
		job *Job
		key string
	}
	var pend []pending
	for _, id := range order {
		f := byID[id]
		if f.evicted {
			continue
		}
		// Keep IDs monotonic across restarts.
		var n int
		if _, err := fmt.Sscanf(id, "s%d-", &n); err == nil && n > m.nextID {
			m.nextID = n
		}
		var req StudyRequest
		if f.submit.Req != nil {
			req = *f.submit.Req
		}
		owner := f.submit.Owner
		if owner == "" {
			owner = m.cfg.NodeID
		}
		job := &Job{
			ID: id, Key: f.submit.Key, Owner: owner,
			Req: req, Created: f.submit.Created,
			state: StateQueued,
			subs:  make(map[int]chan Event),
			done:  make(chan struct{}),
		}
		if f.submit.Req != nil {
			if opts, err := req.Options(); err == nil {
				job.StudyKey = core.StudyKey(opts)
			}
		}

		if f.state.Terminal() {
			job.state = f.state
			job.result = f.result
			job.finished = f.final
			if f.errStr != "" {
				job.err = errors.New(f.errStr)
			}
			job.events = []Event{{JobID: id, Kind: string(f.state), State: f.state, Result: f.result, Error: f.errStr}}
			close(job.done)
			m.mu.Lock()
			m.jobs[id] = job
			m.terminals = append(m.terminals, job)
			m.mu.Unlock()
			stats.Restored++
			continue
		}

		// Queued or running at crash time: validate the round trip
		// request → options → StudyKey before re-enqueueing.
		reason := ""
		key := f.submit.Key
		if f.submit.Req == nil {
			reason = "journal entry has no request"
		} else if opts, err := req.Options(); err != nil {
			reason = "request no longer validates: " + err.Error()
		} else if rekey := req.JobKey(opts); key == "" {
			key = rekey
			job.Key = rekey
		} else if rekey != key {
			reason = "study content address changed across restart"
		}
		m.mu.Lock()
		m.jobs[id] = job
		if reason == "" {
			if _, dup := m.byKey[key]; dup {
				reason = "another in-flight job holds the same study key"
			} else {
				m.byKey[key] = job
			}
		}
		m.mu.Unlock()
		if reason != "" {
			m.metrics.JobsRecoveryFailed.Add(1)
			stats.Failed++
			m.finalize(job, StateFailed, nil, &RecoveryError{JobID: id, Reason: reason})
			continue
		}
		pend = append(pend, pending{job, key})
	}

	// Every recovered job must fit the admission queue; grow it before
	// the executors start rather than fail jobs that already earned
	// their 202 in a previous life.
	if len(pend) > cap(m.queue) {
		m.queue = make(chan *Job, len(pend)+m.cfg.QueueCap)
	}
	for _, p := range pend {
		p.job.appendEvent("recovered", nil)
		m.queue <- p.job
		m.metrics.JobsRecovered.Add(1)
		stats.Recovered++
	}

	m.mu.Lock()
	m.evictLocked(time.Now())
	m.mu.Unlock()
	m.compactJournal()
	return stats, nil
}

// RetryAfter estimates how many seconds a 429'd client should wait for
// an admission slot: the EWMA of recent job service times, scaled by
// the queue depth ahead of it and the executor parallelism, clamped to
// [1, 60]. Before any job has finished it falls back to 1 second.
func (m *Manager) RetryAfter() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return computeRetryAfter(time.Duration(m.avgJobNS), len(m.queue), m.cfg.Executors)
}

func computeRetryAfter(avgJob time.Duration, depth, executors int) int {
	if avgJob <= 0 {
		return 1
	}
	if executors < 1 {
		executors = 1
	}
	est := avgJob * time.Duration(depth+1) / time.Duration(executors)
	secs := int(est / time.Second)
	if est%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Submit admits a study request. When an identical study (same content
// address) is already queued or running, the in-flight job is returned
// with deduped=true and no new execution starts — concurrent identical
// submissions share one run. A full queue returns ErrQueueFull; a
// draining manager returns ErrDraining.
func (m *Manager) Submit(req StudyRequest) (job *Job, deduped bool, err error) {
	req = m.normalize(req)
	opts, err := req.Options()
	if err != nil {
		return nil, false, err
	}
	key := req.JobKey(opts)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.metrics.JobsRejected.Add(1)
		return nil, false, ErrDraining
	}
	if inflight, ok := m.byKey[key]; ok {
		m.metrics.JobsDeduped.Add(1)
		return inflight, true, nil
	}
	m.nextID++
	job = &Job{
		ID:       fmt.Sprintf("s%06d-%s", m.nextID, key[:8]),
		Key:      key,
		StudyKey: core.StudyKey(opts),
		Owner:    m.cfg.NodeID,
		Req:      req,
		Created:  time.Now(),
		state:    StateQueued,
		subs:     make(map[int]chan Event),
		done:     make(chan struct{}),
	}
	select {
	case m.queue <- job:
	default:
		m.metrics.JobsRejected.Add(1)
		return nil, false, ErrQueueFull
	}
	m.jobs[job.ID] = job
	m.byKey[key] = job
	m.metrics.JobsAccepted.Add(1)
	job.appendEvent("queued", nil)
	// Journal inside the admission critical section: once the caller has
	// the 202, the job survives a crash. The fsync cost rides the
	// submission path, which is rare next to the work it admits.
	if m.cfg.Journal != nil {
		req := job.Req
		m.cfg.Journal.append(journalRecord{
			Op: "submit", ID: job.ID, Time: time.Now(),
			Key: key, Req: &req, Created: job.Created,
			Owner: m.cfg.NodeID,
		})
	}
	return job, false, nil
}

// Resubmit re-enqueues a job under a caller-chosen ID — the cluster
// lease-handoff path: a ring successor whose dead peer's lease expired
// re-admits the job under the SAME id, so the client's handle keeps
// working across the takeover. Semantics mirror journal recovery: the
// job opens its event stream with "recovered" and counts toward the
// recovered metric. When the id is already known here, or another
// in-flight job holds the same content address, that job is returned
// with accepted=false — the takeover became a no-op or a dedup.
func (m *Manager) Resubmit(id string, req StudyRequest) (job *Job, accepted bool, err error) {
	req = m.normalize(req)
	opts, err := req.Options()
	if err != nil {
		return nil, false, err
	}
	key := req.JobKey(opts)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrDraining
	}
	if j, ok := m.jobs[id]; ok {
		return j, false, nil
	}
	if inflight, ok := m.byKey[key]; ok {
		m.metrics.JobsDeduped.Add(1)
		return inflight, false, nil
	}
	job = &Job{
		ID:       id,
		Key:      key,
		StudyKey: core.StudyKey(opts),
		Owner:    m.cfg.NodeID,
		Req:      req,
		Created:  time.Now(),
		state:    StateQueued,
		subs:     make(map[int]chan Event),
		done:     make(chan struct{}),
	}
	select {
	case m.queue <- job:
	default:
		m.metrics.JobsRejected.Add(1)
		return nil, false, ErrQueueFull
	}
	// Keep locally minted IDs monotonic past the adopted one so a later
	// Submit can never collide with it.
	var n int
	if _, serr := fmt.Sscanf(id, "s%d-", &n); serr == nil && n > m.nextID {
		m.nextID = n
	}
	m.jobs[id] = job
	m.byKey[key] = job
	m.metrics.JobsAccepted.Add(1)
	m.metrics.JobsRecovered.Add(1)
	job.appendEvent("recovered", nil)
	if m.cfg.Journal != nil {
		reqCopy := req
		m.cfg.Journal.append(journalRecord{
			Op: "submit", ID: id, Time: time.Now(),
			Key: key, Req: &reqCopy, Created: job.Created,
			Owner: m.cfg.NodeID,
		})
	}
	return job, true, nil
}

// normalize applies the daemon's request defaults before admission.
// Idempotent: a request that already went through a peer's normalize
// passes unchanged, so cluster handoff cannot double-apply it.
func (m *Manager) normalize(req StudyRequest) StudyRequest {
	if m.cfg.DefaultRace && !req.Race {
		req.Race = true
	}
	return req
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs snapshots every job's status, newest first. A non-empty filter
// keeps only jobs in that state. Age-based retention is applied lazily
// here (and on scrape), so an idle daemon still sheds old terminals.
func (m *Manager) Jobs(filter State) []JobStatus {
	m.mu.Lock()
	m.evictLocked(time.Now())
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		if filter != "" && st.State != filter {
			continue
		}
		out = append(out, st)
	}
	// Newest first by ID (IDs are monotonic).
	for i := 0; i < len(out); i++ {
		for k := i + 1; k < len(out); k++ {
			if out[k].ID > out[i].ID {
				out[i], out[k] = out[k], out[i]
			}
		}
	}
	return out
}

// Cancel stops a job: a queued job goes terminal immediately, a running
// one has its context cancelled and goes terminal within one evaluation
// granule. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return nil
	case j.state == StateQueued:
		j.mu.Unlock()
		m.finalize(j, StateCancelled, nil, context.Canceled)
		return nil
	default: // running
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	}
}

// Snapshot assembles the gauge set for a /metrics scrape.
func (m *Manager) Snapshot() Snapshot {
	m.mu.Lock()
	m.evictLocked(time.Now())
	byState := make(map[State]int)
	for _, j := range m.jobs {
		byState[j.State()]++
	}
	// State() takes j.mu while m.mu is held: safe, the lock order
	// everywhere is Manager.mu → Job.mu.
	snap := Snapshot{
		QueueDepth:    len(m.queue),
		QueueCapacity: cap(m.queue),
		JobsByState:   byState,
		Retained:      len(m.terminals),
		Draining:      m.draining,
	}
	m.mu.Unlock()
	if m.cfg.Journal != nil {
		snap.Journal = m.cfg.Journal.Stats()
	}
	snap.PoolQueued = m.pool.Queued()
	snap.PoolInFlight = m.pool.InFlight()
	snap.PoolWorkers = m.pool.Workers()
	if m.cfg.Cache != nil {
		cs := m.cfg.Cache.Stats()
		snap.CacheHits = cs.Hits
		snap.CacheMisses = cs.Misses
	}
	snap.Kernel = sim.ReadKernelStats()
	return snap
}

// Ready reports whether the manager can accept work: Start has run
// (journal replay, if configured, happens before Start) and no drain is
// in progress. /readyz serves this.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.started && !m.draining
}

// runJob executes one study on an executor goroutine.
func (m *Manager) runJob(job *Job) {
	ctx, cancel := context.WithCancel(m.loopCtx)
	if m.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(m.loopCtx, m.cfg.JobTimeout)
	}
	defer cancel()
	if !job.begin(cancel) {
		return // cancelled while queued
	}
	job.appendEvent("started", nil)
	if m.cfg.Journal != nil {
		// Losing this record to a crash is harmless: a job journaled as
		// queued is re-enqueued by replay exactly like a running one.
		m.cfg.Journal.append(journalRecord{Op: "start", ID: job.ID, Time: time.Now(), Owner: m.cfg.NodeID})
	}

	opts, err := job.Req.Options()
	if err != nil {
		// Submit validated already; a failure here is a programming error.
		m.finalize(job, StateFailed, nil, err)
		return
	}
	opts.Pool = m.pool
	opts.Synth.Cache = m.cfg.Cache
	opts.Synth.EvalHook = m.cfg.EvalHook
	opts.Progress = func(ev core.ProgressEvent) {
		if ev.Kind == "race_rung" {
			// The event's Pruned is cumulative; the per-rung cut is
			// entrants minus promotions (the final rung promotes nobody
			// and prunes nobody).
			pruned := 0
			if ev.Promoted > 0 {
				pruned = ev.Candidates - ev.Promoted
			}
			m.metrics.ObserveRaceRung(ev.Promoted, pruned)
		}
		p := ev
		job.appendEvent("progress", func(e *Event) { e.Progress = &p })
	}
	opts.Synth.Progress = func(p synth.Progress) {
		m.metrics.ObserveEval(p.Elapsed)
		job.mu.Lock()
		job.evals++
		job.mu.Unlock()
	}

	start := time.Now()
	study, err := core.Optimize(ctx, opts)
	var result *StudyJSON
	if err == nil {
		m.metrics.ObserveSurrogate(study.SurrogateProposals, study.SurrogateAccepted)
		if job.Req.Yield() {
			result, err = m.runYield(ctx, job, study, opts, start)
		} else {
			result = EncodeStudy(study, opts.Mode, time.Since(start))
		}
	}
	switch {
	case err == nil:
		m.finalize(job, StateDone, result, nil)
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		m.finalize(job, StateCancelled, nil, err)
	default:
		m.finalize(job, StateFailed, nil, err)
	}
}

// runYield extends a completed synthesis with the Monte-Carlo sign-off
// lane: map the best design onto its error model, sample the draws on
// the shared pool, and fold the distributions into the study result.
// Draw seeds derive from the synthesis StudyKey (not the yield JobKey),
// so the same design re-analyzed under a different draw count replays
// the same leading realizations.
func (m *Manager) runYield(ctx context.Context, job *Job, study *core.Study, opts core.Options, start time.Time) (*StudyJSON, error) {
	spec := job.Req.YieldSpec()
	model, err := yield.FromStudy(study, opts, spec)
	if err != nil {
		return nil, err
	}
	yres, err := yield.Run(ctx, m.pool, model, core.StudyKey(opts), spec, yield.Hooks{
		Progress: func(p yield.Progress) {
			ev := core.ProgressEvent{Kind: "yield_chunk", Done: p.Done, Draws: p.Draws, Pass: p.Pass}
			job.appendEvent("progress", func(e *Event) { e.Progress = &ev })
		},
		Draw: func(_ int, d yield.Draw) {
			m.metrics.ObserveYieldDraw(d.ENOB, d.Pass)
		},
	})
	if err != nil {
		return nil, err
	}
	out := EncodeStudy(study, opts.Mode, time.Since(start))
	out.Mode = "yield"
	out.Yield = yres
	return out, nil
}

// finalize moves a job to a terminal state exactly once: records the
// outcome, emits the terminal event, closes subscriber channels and the
// done channel, releases the single-flight key, and bumps the counters.
func (m *Manager) finalize(job *Job, state State, result *StudyJSON, err error) {
	// Manager.mu wraps the whole transition (lock order Manager.mu →
	// Job.mu) so the terminal flip, the single-flight release, and the
	// retention-ring insert are one atomic step: anyone who observes the
	// job as done also observes a correctly bounded job table.
	m.mu.Lock()
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		m.mu.Unlock()
		return
	}
	job.state = state
	job.finished = time.Now()
	job.result = result
	job.err = err
	// The terminal event, the subscriber close, and the state flip are
	// one critical section: a Subscribe on the other side of the lock
	// either sees the complete event log (terminal line included) or
	// gets the terminal event on its live channel before the close.
	ev := Event{Seq: len(job.events), JobID: job.ID, Kind: string(state), State: state, Result: result}
	if err != nil {
		ev.Error = err.Error()
	}
	job.events = append(job.events, ev)
	for id, ch := range job.subs {
		select {
		case ch <- ev:
		default:
		}
		delete(job.subs, id)
		close(ch)
	}
	close(job.done)
	started, finished := job.started, job.finished
	job.mu.Unlock()

	if m.byKey[job.Key] == job {
		delete(m.byKey, job.Key)
	}
	// Terminal jobs enter the retention ring instead of living in
	// m.jobs forever; eviction below is what keeps the daemon's memory
	// bounded under sustained traffic.
	m.terminals = append(m.terminals, job)
	if !started.IsZero() {
		// EWMA of job service time, the drain-rate estimate behind
		// Retry-After on 429.
		d := float64(finished.Sub(started))
		if m.avgJobNS == 0 {
			m.avgJobNS = d
		} else {
			m.avgJobNS += 0.3 * (d - m.avgJobNS)
		}
	}
	m.evictLocked(time.Now())
	m.mu.Unlock()

	// Journal after the in-memory flip: a crash in the gap replays the
	// job as queued/running and re-runs it, which the content-addressed
	// synthesis cache makes nearly free — at-least-once, never lost.
	if m.cfg.Journal != nil {
		rec := journalRecord{Op: "final", ID: job.ID, Time: time.Now(), State: state, Result: result}
		if err != nil {
			rec.Error = err.Error()
		}
		m.cfg.Journal.append(rec)
	}

	switch state {
	case StateDone:
		m.metrics.JobsDone.Add(1)
	case StateFailed:
		m.metrics.JobsFailed.Add(1)
	case StateCancelled:
		m.metrics.JobsCancelled.Add(1)
	}

	if j := m.cfg.Journal; j != nil && j.recordsSinceCompact() > journalCompactEvery {
		m.compactJournal()
	}
}

// evictLocked (caller holds m.mu) trims the terminal-job ring to the
// size and age bounds, removing evicted jobs from the job table — the
// fix for the unbounded m.jobs growth the serving layer shipped with.
func (m *Manager) evictLocked(now time.Time) {
	for len(m.terminals) > 0 {
		oldest := m.terminals[0]
		over := len(m.terminals) > m.cfg.Retain
		if !over && m.cfg.RetainAge > 0 {
			oldest.mu.Lock()
			over = now.Sub(oldest.finished) > m.cfg.RetainAge
			oldest.mu.Unlock()
		}
		if !over {
			return
		}
		m.terminals[0] = nil
		m.terminals = m.terminals[1:]
		delete(m.jobs, oldest.ID)
		m.metrics.JobsEvicted.Add(1)
		if m.cfg.Journal != nil {
			m.cfg.Journal.append(journalRecord{Op: "evict", ID: oldest.ID, Time: now})
		}
	}
}

// compactJournal rewrites the WAL as one submit record per live job
// plus a final record for the retained terminals, in submit order.
// Replay of the compacted file reconstructs exactly the current job
// table, its queue order and its retention ring.
func (m *Manager) compactJournal() {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	slices.SortFunc(jobs, func(a, b *Job) int { return submitOrder(a.Created, a.ID, b.Created, b.ID) })
	recs := make([]journalRecord, 0, 2*len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		req := j.Req
		recs = append(recs, journalRecord{
			Op: "submit", ID: j.ID, Time: j.Created,
			Key: j.Key, Req: &req, Created: j.Created,
			Owner: j.Owner,
		})
		if j.state.Terminal() {
			rec := journalRecord{Op: "final", ID: j.ID, Time: j.finished, State: j.state, Result: j.result}
			if j.err != nil {
				rec.Error = j.err.Error()
			}
			recs = append(recs, rec)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	_ = m.cfg.Journal.compact(recs)
}

// submitOrder orders two jobs as they were submitted: by creation time,
// then by ID.
func submitOrder(aCreated time.Time, aID string, bCreated time.Time, bID string) int {
	if c := aCreated.Compare(bCreated); c != 0 {
		return c
	}
	return strings.Compare(aID, bID)
}

// Drain shuts the manager down: new submissions are rejected, queued
// jobs are cancelled immediately, and running jobs get up to timeout to
// finish before their contexts are cancelled. Drain blocks until every
// executor goroutine has exited, so a clean return means no engine
// goroutines remain.
func (m *Manager) Drain(timeout time.Duration) {
	m.mu.Lock()
	m.draining = true
	var queued, running []*Job
	for _, j := range m.jobs {
		switch j.State() {
		case StateQueued:
			queued = append(queued, j)
		case StateRunning:
			running = append(running, j)
		}
	}
	m.mu.Unlock()

	// Queued jobs are rejected immediately: they have not started, so
	// there is nothing worth waiting for.
	for _, j := range queued {
		// Cancel handles the race where an executor began the job after
		// the snapshot above: it cancels the running context instead.
		_ = m.Cancel(j.ID)
	}

	// In-flight jobs get the grace window, then cancellation. The timer
	// channel delivers once, so remember expiry instead of re-receiving.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	expired := false
	for _, j := range running {
		if !expired {
			select {
			case <-j.Done():
				continue
			case <-deadline.C:
				expired = true
			}
		}
		_ = m.Cancel(j.ID)
		<-j.Done() // cancellation lands within one evaluation granule
	}
	// A job that slipped from queued to running between the snapshot and
	// Cancel above is already cancelled (context), so Done closes fast;
	// sweep anything left to be safe.
	m.mu.Lock()
	var rest []*Job
	for _, j := range m.jobs {
		if !j.State().Terminal() && j.State() == StateRunning {
			rest = append(rest, j)
		}
	}
	m.mu.Unlock()
	for _, j := range rest {
		_ = m.Cancel(j.ID)
		<-j.Done()
	}

	m.stopLoop()
	m.wg.Wait()

	// Anything still sitting in the queue channel was finalized as
	// cancelled above and is skipped by begin(); drop the references.
	for {
		select {
		case <-m.queue:
		default:
			return
		}
	}
}
