// White-box tests for the durability layer: journal replay after a
// simulated crash, typed recovery failures, the terminal-job retention
// ring (the m.jobs leak regression), and the drain-rate Retry-After.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipesyn/internal/testutil"
)

func tinyReq(bits int, seed int64) StudyRequest {
	return StudyRequest{Bits: bits, Mode: "equation", Evals: 4, Pattern: 4, Seed: seed}
}

func waitTerminal(t *testing.T, j *Job, want State) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(20 * time.Second):
		t.Fatalf("job %s never went terminal (state %q)", j.ID, j.State())
	}
	if st := j.State(); st != want {
		t.Fatalf("job %s reached %q, want %q (err %v)", j.ID, st, want, j.Status().Error)
	}
}

// TestRecoverRequeuesQueuedAndRunning is the crash-recovery core: a
// manager journals one running and one queued job, the process "dies"
// (the first manager is simply abandoned mid-flight), and a second
// manager replaying the same state dir re-enqueues both — same IDs, a
// leading "recovered" event — and runs them to completion.
func TestRecoverRequeuesQueuedAndRunning(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	jnA, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	manA := NewManager(Config{
		Workers: 1, QueueCap: 4, Executors: 1, Journal: jnA,
		EvalHook: func(ctx context.Context, eval int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	manA.Start()

	running, _, err := manA.Submit(tinyReq(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for running.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued, _, err := manA.Submit(tinyReq(11, 3))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateQueued {
		t.Fatalf("second job state %q, want queued behind the single executor", queued.State())
	}

	// "Crash": manA is left running and untouched — exactly the state a
	// kill -9 leaves on disk. A second manager replays the journal.
	jnB, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	manB := NewManager(Config{Workers: 2, QueueCap: 4, Executors: 1, Journal: jnB})
	stats, err := manB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovered != 2 || stats.Failed != 0 || stats.Restored != 0 {
		t.Fatalf("recovery stats %+v, want 2 recovered", stats)
	}
	for _, id := range []string{running.ID, queued.ID} {
		j, ok := manB.Get(id)
		if !ok {
			t.Fatalf("job %s not replayed", id)
		}
		replay, _, cancel := j.Subscribe()
		cancel()
		if len(replay) == 0 || replay[0].Kind != "recovered" {
			t.Fatalf("job %s event log starts with %+v, want recovered", id, replay)
		}
	}

	manB.Start()
	for _, id := range []string{running.ID, queued.ID} {
		j, _ := manB.Get(id)
		waitTerminal(t, j, StateDone)
		if st := j.Status(); st.Result == nil || st.Result.TotalEvals <= 0 {
			t.Fatalf("recovered job %s finished without a result: %+v", id, st)
		}
	}
	if got := manB.Metrics().JobsRecovered.Load(); got != 2 {
		t.Fatalf("recovered counter %d, want 2", got)
	}

	// Release the "crashed" manager so the leak check can hold.
	close(gate)
	manA.Drain(5 * time.Second)
	manB.Drain(time.Second)
	jnA.Close()
	jnB.Close()
}

// TestRecoverRejectsPreBumpKey: a job journaled before the last key
// version bump (synth.KeyVersion) carries a content address the current
// evaluator no longer mints. Recovery must not re-run it under that
// address — a key of the backward-Euler-cap window/300 evaluator must
// never name a result of the trapezoidal window/200 one — so it is
// finalized failed with a *RecoveryError and counted.
func TestRecoverRejectsPreBumpKey(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := tinyReq(10, 3)
	// JobKey of tinyReq(10, 3) as minted under KeyVersion 3.
	const preBump = "8d9e82df8912d031e818913a61fd205fac81f6ba5b13e684ef4d9b684a3f64fd"
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	if req.JobKey(opts) == preBump {
		t.Fatal("the current key equals the pre-bump key; the version bump is not under test")
	}
	const id = "s000009-prebump0"
	jn.append(journalRecord{Op: "submit", ID: id, Time: time.Now(), Key: preBump, Req: &req, Created: time.Now()})
	jn.Close()

	jn2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	man := NewManager(Config{Workers: 1, QueueCap: 2, Journal: jn2})
	stats, err := man.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || stats.Recovered != 0 {
		t.Fatalf("recovery stats %+v, want the pre-bump job failed", stats)
	}
	j, ok := man.Get(id)
	if !ok {
		t.Fatalf("pre-bump job %s missing from the table", id)
	}
	if j.State() != StateFailed {
		t.Fatalf("pre-bump job state %q, want failed", j.State())
	}
	j.mu.Lock()
	jerr := j.err
	j.mu.Unlock()
	var re *RecoveryError
	if !errors.As(jerr, &re) {
		t.Fatalf("pre-bump job error %v, want *RecoveryError", jerr)
	}
	if got := man.Metrics().JobsRecoveryFailed.Load(); got != 1 {
		t.Fatalf("recovery_failed counter %d, want 1", got)
	}
}

// TestRecoverMarksUnrecoverableFailed exercises the typed failure path:
// journal entries whose request is missing, no longer validates, or
// whose content address does not round-trip are finalized failed with a
// *RecoveryError instead of being dropped or re-run.
func TestRecoverMarksUnrecoverableFailed(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	badReq := StudyRequest{Bits: 0} // fails validation (bits out of range)
	jn.append(journalRecord{Op: "submit", ID: "s000005-badreq00", Time: time.Now(), Key: "ffff", Req: &badReq, Created: time.Now()})
	okReq := tinyReq(10, 3)
	jn.append(journalRecord{Op: "submit", ID: "s000006-badkey00", Time: time.Now(), Key: strings.Repeat("0", 64), Req: &okReq, Created: time.Now()})
	jn.append(journalRecord{Op: "submit", ID: "s000007-noreq000", Time: time.Now(), Key: "aaaa", Created: time.Now()})
	jn.Close()

	jn2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := NewManager(Config{Workers: 1, QueueCap: 2, Journal: jn2})
	stats, err := man.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 3 || stats.Recovered != 0 {
		t.Fatalf("recovery stats %+v, want 3 failed", stats)
	}
	for _, id := range []string{"s000005-badreq00", "s000006-badkey00", "s000007-noreq000"} {
		j, ok := man.Get(id)
		if !ok {
			t.Fatalf("unrecoverable job %s missing from the table", id)
		}
		if j.State() != StateFailed {
			t.Fatalf("job %s state %q, want failed", id, j.State())
		}
		var re *RecoveryError
		j.mu.Lock()
		jerr := j.err
		j.mu.Unlock()
		if !errors.As(jerr, &re) {
			t.Fatalf("job %s error %v, want *RecoveryError", id, jerr)
		}
	}
	if got := man.Metrics().JobsRecoveryFailed.Load(); got != 3 {
		t.Fatalf("recovery_failed counter %d, want 3", got)
	}

	// IDs stay monotonic across the restart: the next admission must not
	// collide with a replayed ID.
	man.Start()
	job, _, err := man.Submit(tinyReq(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.ID, "s000008-") {
		t.Fatalf("post-recovery ID %q, want s000008-…", job.ID)
	}
	waitTerminal(t, job, StateDone)
	man.Drain(time.Second)
	jn2.Close()
}

// TestRecoverRestoresTerminalJobsAndTornTail: terminal jobs come back
// with state and result intact, a torn trailing line (the expected
// artifact of dying mid-append) is dropped without failing replay, and
// evicted jobs stay gone.
func TestRecoverRestoresTerminalJobsAndTornTail(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	doneReq := tinyReq(10, 3)
	jn.append(journalRecord{Op: "submit", ID: "s000001-aaaaaaaa", Time: time.Now(), Key: "aaaa", Req: &doneReq, Created: time.Now()})
	// A start line as a cluster node journaled it before the "lease" key
	// was dropped: old journals must still replay it, not drop it.
	if _, err := jn.f.WriteString(`{"op":"start","id":"s000001-aaaaaaaa","t":"2026-10-17T12:00:00Z","created":"0001-01-01T00:00:00Z","owner":"http://node-a:8080","lease":"2026-10-17T12:00:10Z"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	jn.append(journalRecord{Op: "final", ID: "s000001-aaaaaaaa", Time: time.Now(), State: StateDone, Result: &StudyJSON{Bits: 10, TotalEvals: 42}})
	evReq := tinyReq(11, 3)
	jn.append(journalRecord{Op: "submit", ID: "s000002-bbbbbbbb", Time: time.Now(), Key: "bbbb", Req: &evReq, Created: time.Now()})
	jn.append(journalRecord{Op: "final", ID: "s000002-bbbbbbbb", Time: time.Now(), State: StateFailed, Error: "boom"})
	jn.append(journalRecord{Op: "evict", ID: "s000002-bbbbbbbb", Time: time.Now()})
	jn.Close()
	// Torn tail: half a record, no newline.
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","id":"s000003-cc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jn2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	man := NewManager(Config{Workers: 1, QueueCap: 2, Journal: jn2})
	stats, err := man.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restored != 1 || stats.Dropped != 1 || stats.Recovered != 0 || stats.Failed != 0 {
		t.Fatalf("recovery stats %+v, want 1 restored + 1 dropped", stats)
	}
	j, ok := man.Get("s000001-aaaaaaaa")
	if !ok {
		t.Fatal("terminal job not restored")
	}
	st := j.Status()
	if st.State != StateDone || st.Result == nil || st.Result.TotalEvals != 42 {
		t.Fatalf("restored terminal job %+v", st)
	}
	if _, ok := man.Get("s000002-bbbbbbbb"); ok {
		t.Fatal("evicted job resurrected by replay")
	}
	man.Drain(0)
}

// TestRecoverSkipsOverlongLine: a corrupt line longer than any line
// buffer (17 MiB here) between two valid submits is dropped and
// counted like any other corrupt line. It must not abort the replay,
// which would stop the daemon from starting.
func TestRecoverSkipsOverlongLine(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"s000001-aaaaaaaa", "s000002-bbbbbbbb"}
	for i, id := range ids {
		req := tinyReq(10+i, 3)
		jn.append(journalRecord{Op: "submit", ID: id, Time: time.Now(), Req: &req, Created: time.Now()})
		if i == 0 {
			garbage := append(bytes.Repeat([]byte{'x'}, 17<<20), '\n')
			if _, err := jn.f.Write(garbage); err != nil {
				t.Fatal(err)
			}
		}
	}
	jn.Close()

	jn2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	man := NewManager(Config{Workers: 1, QueueCap: 2, Journal: jn2})
	stats, err := man.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Dropped != 1 || stats.Recovered != 2 || stats.Failed != 0 {
		t.Fatalf("recovery stats %+v, want 2 records, 1 dropped, 2 recovered", stats)
	}
	for _, id := range ids {
		j, ok := man.Get(id)
		if !ok || j.State() != StateQueued {
			t.Fatalf("job %s not re-enqueued (found %v)", id, ok)
		}
	}
	man.Drain(0)
}

// TestTerminalRetentionBoundsJobs is the leak regression for the
// serving layer's unbounded m.jobs growth: a soak of distinct short
// jobs must leave the job table bounded by the retention ring, with the
// overflow visible on the evicted counter, and the journal must have
// been compacted along the way rather than growing with traffic.
func TestTerminalRetentionBoundsJobs(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	const retain = 8
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := NewManager(Config{
		Workers: 2, QueueCap: n, Executors: 2,
		Retain: retain, Journal: jn,
	})
	man.Start()

	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		// Distinct seeds → distinct content addresses → no dedup.
		job, deduped, err := man.Submit(tinyReq(4, int64(i+1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if deduped {
			t.Fatalf("submit %d unexpectedly deduped", i)
		}
		jobs = append(jobs, job)
	}
	for _, j := range jobs {
		waitTerminal(t, j, StateDone)
	}

	snap := man.Snapshot()
	total := 0
	for _, c := range snap.JobsByState {
		total += c
	}
	if total > retain {
		t.Fatalf("job table holds %d jobs after %d completions, want ≤ %d: the terminal leak is back", total, n, retain)
	}
	if snap.Retained > retain {
		t.Fatalf("retention ring %d over bound %d", snap.Retained, retain)
	}
	if got := man.Metrics().JobsEvicted.Load(); got < int64(n-retain) {
		t.Fatalf("evicted counter %d, want ≥ %d", got, n-retain)
	}
	if !testing.Short() {
		if snap.Journal.Compactions < 1 {
			t.Fatalf("journal never compacted over %d jobs (%d records)", n, snap.Journal.Records)
		}
		if snap.Journal.Records > journalCompactEvery+4*retain {
			t.Fatalf("journal records %d not bounded by compaction", snap.Journal.Records)
		}
	}
	man.Drain(time.Second)
	jn.Close()

	// A restart over the soaked state dir restores only the retained
	// tail — evict records hold across replay.
	jn2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	man2 := NewManager(Config{Workers: 1, QueueCap: 4, Retain: retain, Journal: jn2})
	stats, err := man2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restored != retain || stats.Recovered != 0 {
		t.Fatalf("post-soak recovery %+v, want %d restored", stats, retain)
	}
	man2.Drain(0)
}

// TestRetentionAgeEvicts covers the age bound: terminal jobs older than
// RetainAge disappear on the next snapshot even when the size bound
// alone would keep them.
func TestRetentionAgeEvicts(t *testing.T) {
	man := NewManager(Config{Workers: 1, QueueCap: 4, Retain: 100, RetainAge: 30 * time.Millisecond})
	man.Start()
	job, _, err := man.Submit(tinyReq(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job, StateDone)
	time.Sleep(60 * time.Millisecond)
	if snap := man.Snapshot(); snap.Retained != 0 {
		t.Fatalf("aged-out job still retained: %+v", snap)
	}
	if _, ok := man.Get(job.ID); ok {
		t.Fatal("aged-out job still in the table")
	}
	man.Drain(time.Second)
}

// TestComputeRetryAfter pins the drain-rate estimate's shape: never
// below 1 s, scales with queue depth, divides across executors, and
// clamps at 60 s.
func TestComputeRetryAfter(t *testing.T) {
	cases := []struct {
		avg       time.Duration
		depth, ex int
		want      int
	}{
		{0, 5, 1, 1},                       // no observations yet
		{10 * time.Millisecond, 0, 1, 1},   // sub-second rounds up to 1
		{2 * time.Second, 3, 1, 8},         // (3+1)·2s
		{2 * time.Second, 3, 2, 4},         // two executors drain twice as fast
		{time.Hour, 10, 1, 60},             // clamped
		{1500 * time.Millisecond, 0, 1, 2}, // ceil, not floor
	}
	for _, c := range cases {
		if got := computeRetryAfter(c.avg, c.depth, c.ex); got != c.want {
			t.Errorf("computeRetryAfter(%v, %d, %d) = %d, want %d", c.avg, c.depth, c.ex, got, c.want)
		}
	}
}

// TestJournalRoundTripKeyStability pins the other half of recovery's
// contract (next to core.StudyKey's execution-knob independence): a
// StudyRequest that went through JSON — exactly what the journal stores
// — maps to the same content address as the original.
func TestJournalRoundTripKeyStability(t *testing.T) {
	for i, req := range []StudyRequest{
		tinyReq(10, 3),
		{Bits: 13, SampleRate: 80e6, VRef: 0.9, Mode: "hybrid", Evals: 7, Pattern: 5, Restarts: 2, Seed: 11, Retarget: true, SHA: true},
		{Bits: 10, Mode: "yield", Evals: 7, Pattern: 5, Seed: 11, Draws: 500, MinENOB: 8.5},
	} {
		dir := t.TempDir()
		jn, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := req.Options()
		if err != nil {
			t.Fatal(err)
		}
		key := req.JobKey(opts)
		jn.append(journalRecord{Op: "submit", ID: fmt.Sprintf("s%06d-roundtrp", i+1), Time: time.Now(), Key: key, Req: &req, Created: time.Now()})
		jn.Close()

		jn2, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		man := NewManager(Config{Workers: 1, QueueCap: 2, Journal: jn2})
		stats, err := man.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Recovered != 1 || stats.Failed != 0 {
			t.Fatalf("case %d: key did not survive the JSON round trip: %+v", i, stats)
		}
		man.Drain(0)
		jn2.Close()
	}
}
