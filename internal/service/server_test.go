package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pipesyn/internal/netlist"
	"pipesyn/internal/service"
	"pipesyn/internal/sim"
	"pipesyn/internal/synth"
	"pipesyn/internal/testutil"
)

// tinyStudy is a request small enough to finish in tens of milliseconds
// in equation mode while still exercising the full flow.
func tinyStudy(bits int) service.StudyRequest {
	return service.StudyRequest{
		Bits: bits, Mode: "equation", Evals: 8, Pattern: 6, Seed: 3,
	}
}

func postStudy(t *testing.T, ts *httptest.Server, req service.StudyRequest) (*http.Response, service.SubmitResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.SubmitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, out
}

func getStatus(t *testing.T, ts *httptest.Server, id string) service.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/studies/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state,
// which fails the test if it is not the wanted one). The deadline is
// generous: hybrid-mode jobs under the race detector on a starved CI
// box take tens of seconds; polling costs passing tests nothing.
func waitState(t *testing.T, ts *httptest.Server, id string, want service.State) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q (error %q) while waiting for %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return service.JobStatus{}
}

func TestServiceLifecycleSubmitPollResult(t *testing.T) {
	man := service.NewManager(service.Config{Workers: 2, QueueCap: 4})
	man.Start()
	defer man.Drain(time.Second)
	ts := httptest.NewServer(service.NewServer(man))
	defer ts.Close()

	resp, sub := postStudy(t, ts, tinyStudy(10))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	if sub.Deduped || sub.ID == "" || sub.Key == "" {
		t.Fatalf("unexpected submit response %+v", sub)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/studies/"+sub.ID {
		t.Fatalf("Location %q", loc)
	}

	st := waitState(t, ts, sub.ID, service.StateDone)
	if st.Result == nil {
		t.Fatal("done job has no result")
	}
	if st.Result.Bits != 10 || len(st.Result.Candidates) == 0 || len(st.Result.Best.Config) == 0 {
		t.Fatalf("implausible result %+v", st.Result)
	}
	if st.Result.TotalEvals <= 0 || st.Evals <= 0 {
		t.Fatalf("no evaluations recorded: result %d, job %d", st.Result.TotalEvals, st.Evals)
	}
	if st.Started == nil || st.Finished == nil {
		t.Fatal("missing timestamps on a finished job")
	}

	// The list endpoint knows the job too.
	lresp, err := http.Get(ts.URL + "/v1/studies")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("job list %+v", list.Jobs)
	}
}

func TestServiceQueueFullReturns429(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	man := service.NewManager(service.Config{
		Workers: 1, QueueCap: 1, Executors: 1,
		EvalHook: func(ctx context.Context, eval int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	man.Start()
	defer man.Drain(0)
	ts := httptest.NewServer(service.NewServer(man))
	defer ts.Close()

	// First job occupies the single executor...
	_, j1 := postStudy(t, ts, tinyStudy(10))
	waitState(t, ts, j1.ID, service.StateRunning)
	// ...second fills the one queue slot...
	resp2, _ := postStudy(t, ts, tinyStudy(11))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d, want 202", resp2.StatusCode)
	}
	// ...third must bounce with backpressure, not queue unboundedly.
	resp3, _ := postStudy(t, ts, tinyStudy(12))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429", resp3.StatusCode)
	}
	// Retry-After is computed from the observed drain rate; whatever the
	// estimate, the wire form must be an integer number of seconds ≥ 1
	// (RFC 9110 delay-seconds) so naive clients can sleep on it.
	ra := resp3.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %q does not parse as clamped delay-seconds: %v", ra, err)
	}
	if got := man.Metrics().JobsRejected.Load(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
}

func TestServiceSingleFlightDedup(t *testing.T) {
	gate := make(chan struct{})
	man := service.NewManager(service.Config{
		Workers: 1, QueueCap: 4, Executors: 1,
		EvalHook: func(ctx context.Context, eval int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	man.Start()
	defer man.Drain(time.Second)
	ts := httptest.NewServer(service.NewServer(man))
	defer ts.Close()

	// Occupy the executor so the identical pair stays in-flight together.
	_, blocker := postStudy(t, ts, tinyStudy(11))
	waitState(t, ts, blocker.ID, service.StateRunning)

	respA, jobA := postStudy(t, ts, tinyStudy(10))
	respB, jobB := postStudy(t, ts, tinyStudy(10))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("first identical submit: HTTP %d, want 202", respA.StatusCode)
	}
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("deduped submit: HTTP %d, want 200", respB.StatusCode)
	}
	if !jobB.Deduped || jobB.ID != jobA.ID || jobB.Key != jobA.Key {
		t.Fatalf("not single-flighted: %+v vs %+v", jobA, jobB)
	}

	close(gate)
	st := waitState(t, ts, jobA.ID, service.StateDone)
	waitState(t, ts, blocker.ID, service.StateDone)

	// One execution for two submissions: the engine spent the evals of
	// exactly two studies (blocker + the shared one), and the admission
	// counters agree.
	m := man.Metrics()
	if got := m.JobsAccepted.Load(); got != 2 {
		t.Fatalf("accepted %d, want 2", got)
	}
	if got := m.JobsDeduped.Load(); got != 1 {
		t.Fatalf("deduped %d, want 1", got)
	}
	blockerSt := getStatus(t, ts, blocker.ID)
	if total := m.Evals(); total != st.Evals+blockerSt.Evals {
		t.Fatalf("eval counter %d ≠ job evals %d+%d: a duplicate execution ran",
			total, st.Evals, blockerSt.Evals)
	}
}

func TestServiceEventsNDJSONOrdering(t *testing.T) {
	man := service.NewManager(service.Config{Workers: 2, QueueCap: 4})
	man.Start()
	defer man.Drain(time.Second)
	ts := httptest.NewServer(service.NewServer(man))
	defer ts.Close()

	_, sub := postStudy(t, ts, tinyStudy(10))

	// Stream while the job runs; the handler holds the connection until
	// the job is terminal.
	resp, err := http.Get(ts.URL + "/v1/studies/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("content type %q", ct)
	}
	var events []service.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: gap or reorder", i, ev.Seq)
		}
		if ev.JobID != sub.ID {
			t.Fatalf("event for wrong job %q", ev.JobID)
		}
	}
	if events[0].Kind != "queued" || events[1].Kind != "started" {
		t.Fatalf("lifecycle head %q,%q", events[0].Kind, events[1].Kind)
	}
	if events[2].Kind != "progress" || events[2].Progress == nil || events[2].Progress.Kind != "plan" {
		t.Fatalf("expected plan progress third, got %+v", events[2])
	}
	points := events[2].Progress.Points
	last := events[len(events)-1]
	if last.Kind != "done" || last.Result == nil {
		t.Fatalf("terminal event %+v", last)
	}
	// Every design point must start before it finishes, and all points
	// must be accounted for before the terminal event.
	started := map[int]bool{}
	doneCount := 0
	for _, ev := range events[2 : len(events)-1] {
		if ev.Kind != "progress" || ev.Progress == nil {
			t.Fatalf("unexpected mid-stream event %+v", ev)
		}
		switch ev.Progress.Kind {
		case "point_start":
			started[ev.Progress.Point] = true
		case "point_done":
			if !started[ev.Progress.Point] {
				t.Fatalf("point %d finished before starting", ev.Progress.Point)
			}
			doneCount++
		}
	}
	if doneCount != points {
		t.Fatalf("%d point_done events for %d planned points", doneCount, points)
	}
}

// TestServiceListStateFilter covers the ?state= listing filter (and its
// /v1/jobs alias): running and terminal jobs land in the right buckets
// and an unknown state is a 400, not an empty list.
func TestServiceListStateFilter(t *testing.T) {
	gate := make(chan struct{})
	man := service.NewManager(service.Config{
		Workers: 1, QueueCap: 4, Executors: 1,
		EvalHook: func(ctx context.Context, eval int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	man.Start()
	defer man.Drain(time.Second)
	ts := httptest.NewServer(service.NewServer(man))
	defer ts.Close()

	_, stalled := postStudy(t, ts, tinyStudy(10))
	waitState(t, ts, stalled.ID, service.StateRunning)

	listIDs := func(path string) []string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		var list struct {
			Jobs []service.JobStatus `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 0, len(list.Jobs))
		for _, j := range list.Jobs {
			ids = append(ids, j.ID)
		}
		return ids
	}

	if ids := listIDs("/v1/studies?state=running"); len(ids) != 1 || ids[0] != stalled.ID {
		t.Fatalf("running filter %v, want [%s]", ids, stalled.ID)
	}
	if ids := listIDs("/v1/jobs?state=done"); len(ids) != 0 {
		t.Fatalf("done filter before completion %v, want empty", ids)
	}
	close(gate)
	waitState(t, ts, stalled.ID, service.StateDone)
	if ids := listIDs("/v1/jobs?state=done"); len(ids) != 1 || ids[0] != stalled.ID {
		t.Fatalf("done filter %v, want [%s]", ids, stalled.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/studies?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus state filter: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestServiceCancelRunningJob(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	man := service.NewManager(service.Config{
		Workers: 1, QueueCap: 4, Executors: 1,
		EvalHook: func(ctx context.Context, eval int) error {
			<-ctx.Done() // stall until cancelled
			return ctx.Err()
		},
	})
	man.Start()
	ts := httptest.NewServer(service.NewServer(man))
	defer ts.Close()

	_, sub := postStudy(t, ts, tinyStudy(10))
	waitState(t, ts, sub.ID, service.StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/studies/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	st := waitState(t, ts, sub.ID, service.StateCancelled)
	if st.Error == "" {
		t.Fatal("cancelled job should carry its cause")
	}
	if got := man.Metrics().JobsCancelled.Load(); got != 1 {
		t.Fatalf("cancelled counter %d", got)
	}
	man.Drain(time.Second)
}

func TestServiceDrainLeakFree(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	man := service.NewManager(service.Config{
		Workers: 2, QueueCap: 4, Executors: 1,
		EvalHook: func(ctx context.Context, eval int) error {
			<-ctx.Done()
			return ctx.Err()
		},
	})
	man.Start()
	ts := httptest.NewServer(service.NewServer(man))

	// One running (stalled) job plus queued ones behind it.
	_, running := postStudy(t, ts, tinyStudy(10))
	waitState(t, ts, running.ID, service.StateRunning)
	_, queuedA := postStudy(t, ts, tinyStudy(11))
	_, queuedB := postStudy(t, ts, tinyStudy(12))

	// Keep an events stream open across the drain: it must end cleanly,
	// not leak its handler goroutine.
	evResp, err := http.Get(ts.URL + "/v1/studies/" + running.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}

	// Short grace: the stalled job cannot finish, so drain must cancel it.
	man.Drain(20 * time.Millisecond)

	if _, err := io.ReadAll(evResp.Body); err != nil {
		t.Fatalf("event stream did not end cleanly: %v", err)
	}
	evResp.Body.Close()

	for _, id := range []string{running.ID, queuedA.ID, queuedB.ID} {
		st := getStatus(t, ts, id)
		if st.State != service.StateCancelled {
			t.Fatalf("job %s drained into %q, want cancelled", id, st.State)
		}
	}
	// Post-drain submissions are refused.
	resp, _ := postStudy(t, ts, tinyStudy(13))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: HTTP %d, want 503", resp.StatusCode)
	}
	// Liveness stays green through a drain; readiness goes red.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: HTTP %d, want 200 (liveness)", hresp.StatusCode)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: HTTP %d, want 503", rresp.StatusCode)
	}
	ts.Close() // before the leak check: the httptest listener has its own goroutines
}

func TestServiceMetricsScrape(t *testing.T) {
	cache, err := synth.NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	man := service.NewManager(service.Config{Workers: 2, QueueCap: 4, Cache: cache})
	man.Start()
	defer man.Drain(time.Second)
	ts := httptest.NewServer(service.NewServer(man))
	defer ts.Close()

	// The kernel counters are process-global; equation-mode studies never
	// touch the simulator, so drive one tiny OP directly to guarantee the
	// scrape has nonzero factorization counts to render.
	ckt, err := netlist.Parse("* divider\nV1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.OP(ckt, sim.DCOpts{}); err != nil {
		t.Fatal(err)
	}

	_, sub := postStudy(t, ts, tinyStudy(10))
	waitState(t, ts, sub.ID, service.StateDone)
	// An identical re-submission is NOT deduped (the first is terminal)
	// but replays entirely from the synthesis cache.
	_, sub2 := postStudy(t, ts, tinyStudy(10))
	if sub2.Deduped {
		t.Fatal("terminal job must not dedupe a new submission")
	}
	st2 := waitState(t, ts, sub2.ID, service.StateDone)
	if st2.Result.CacheHits == 0 || st2.Result.CacheMisses != 0 {
		t.Fatalf("second run should be pure cache hits: %d hits / %d misses",
			st2.Result.CacheHits, st2.Result.CacheMisses)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	text := string(blob)
	for _, want := range []string{
		`adcsynd_jobs_total{event="accepted"} 2`,
		`adcsynd_jobs{state="done"} 2`,
		"adcsynd_queue_depth 0",
		"adcsynd_queue_capacity 4",
		"adcsynd_pool_inflight 0",
		"adcsynd_pool_queued 0",
		"adcsynd_synth_cache_hits_total",
		"adcsynd_synth_cache_misses_total",
		"adcsynd_eval_duration_seconds_count",
		`adcsynd_kernel_factorizations_total{event="performed"}`,
		`adcsynd_kernel_factorizations_total{event="reused"}`,
		"adcsynd_kernel_reuse_fallbacks_total",
		"adcsynd_kernel_ordered_fallbacks_total",
		// Yield counters render (at zero) even when no yield job ran.
		`adcsynd_yield_draws_total{result="pass"} 0`,
		`adcsynd_yield_draws_total{result="fail"} 0`,
		`adcsynd_yield_enob_bucket{le="+Inf"} 0`,
		"adcsynd_yield_enob_count 0",
		"adcsynd_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The OP above performed at least one factorization.
	if strings.Contains(text, `adcsynd_kernel_factorizations_total{event="performed"} 0`) {
		t.Error("kernel factorization counter is zero after a direct OP")
	}
	// Every evaluation runs one warm kernel; there is no batch width.
	if strings.Contains(text, "adcsynd_kernel_batch_width") {
		t.Error("metrics still expose the removed batch-width histogram")
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}
	// The histogram observed real evaluations.
	if strings.Contains(text, "adcsynd_eval_duration_seconds_count 0\n") {
		t.Error("evaluation histogram is empty after a fresh study")
	}
}
