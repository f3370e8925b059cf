package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pipesyn/internal/cluster"
	"pipesyn/internal/service"
	"pipesyn/internal/synth"
)

// testNode is one in-process cluster member listening on a real
// loopback port (peers discover each other over actual HTTP).
type testNode struct {
	url   string
	man   *service.Manager
	cache *synth.Cache
	node  *cluster.Node
	srv   *httptest.Server
	evals atomic.Int64 // synthesis evaluations executed ON this node
	stall atomic.Bool  // when set, this node's evaluations block
	gate  chan struct{}
}

// kill simulates a crash: the listener drops and the cluster loops stop
// cold — no drain, no replica release — exactly what a kill -9 leaves.
func (tn *testNode) kill() {
	tn.srv.CloseClientConnections()
	tn.srv.Close()
	tn.node.Stop()
}

// newTestCluster boots n nodes that all know each other. Ports are
// bound before any node starts so the membership list exists up front.
func newTestCluster(t *testing.T, n int, lease, heartbeat time.Duration) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		tn := &testNode{url: urls[i], gate: make(chan struct{})}
		cache, err := synth.NewCache(0, "")
		if err != nil {
			t.Fatal(err)
		}
		tn.cache = cache
		tn.man = service.NewManager(service.Config{
			Workers: 2, QueueCap: 8, Cache: cache,
			NodeID: urls[i],
			EvalHook: func(ctx context.Context, eval int) error {
				tn.evals.Add(1)
				if tn.stall.Load() {
					select {
					case <-tn.gate:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
				return nil
			},
		})
		tn.man.Start()
		local := service.NewServer(tn.man)
		node, err := cluster.NewNode(cluster.Config{
			Self: urls[i], Peers: urls, VirtualNodes: 16,
			LeaseDuration: lease, HeartbeatEvery: heartbeat,
			Logf: t.Logf,
		}, tn.man, cache, local)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetFill(node.CacheFill)
		cache.SetPush(node.CachePush)
		tn.node = node
		tn.srv = &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: node}}
		tn.srv.Start()
		nodes[i] = tn
	}
	// Only now start the cluster loops: a bound-but-unserved listener
	// accepts connections and strands the priming heartbeat until the
	// probe times out, so every server must be live first.
	for _, tn := range nodes {
		tn.node.Start()
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.node.Stop()
			tn.man.Drain(time.Second)
			tn.srv.Close()
		}
	})
	return nodes
}

func tinyStudy(bits int) service.StudyRequest {
	return service.StudyRequest{Bits: bits, Mode: "equation", Evals: 8, Pattern: 6, Seed: 3}
}

// submitTo posts req to the given node, optionally with the forwarded
// hop-guard header (forcing local execution).
func submitTo(t *testing.T, url string, req service.StudyRequest, forced bool) (*http.Response, service.SubmitResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if forced {
		hreq.Header.Set(cluster.ForwardedHeader, "test")
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub service.SubmitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sub
}

// waitDone polls url for job id until it is done (404 tolerated: during
// a takeover the job briefly exists nowhere reachable).
func waitDone(t *testing.T, url, id string, timeout time.Duration) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last service.JobStatus
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err == nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&last); err == nil {
				if last.State == service.StateDone {
					resp.Body.Close()
					return last
				}
				if last.State.Terminal() {
					resp.Body.Close()
					t.Fatalf("job %s reached %q (error %q), want done", id, last.State, last.Error)
				}
			}
		}
		if resp != nil {
			resp.Body.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished (last state %q)", id, last.State)
	return last
}

func jobKey(t *testing.T, req service.StudyRequest) string {
	t.Helper()
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	return req.JobKey(opts)
}

// TestClusterRoutingDedup: the same study submitted to two different
// nodes lands on one ring owner and executes once — the second submit
// dedupes against the first in-flight job, cluster-wide.
func TestClusterRoutingDedup(t *testing.T) {
	nodes := newTestCluster(t, 3, 10*time.Second, 100*time.Millisecond)
	req := tinyStudy(10)
	owner := nodes[0].node.Ring().Owner(jobKey(t, req))

	// Stall the owner so the twin submission arrives while in-flight.
	for _, tn := range nodes {
		if tn.url == owner {
			tn.stall.Store(true)
		}
	}

	resp1, sub1 := submitTo(t, nodes[0].url, req, false)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d, want 202", resp1.StatusCode)
	}
	resp2, sub2 := submitTo(t, nodes[1].url, req, false)
	if resp2.StatusCode != http.StatusOK || !sub2.Deduped {
		t.Fatalf("twin submit: HTTP %d deduped=%v, want 200 deduped", resp2.StatusCode, sub2.Deduped)
	}
	if sub1.ID != sub2.ID {
		t.Fatalf("twin submits got different jobs: %s vs %s", sub1.ID, sub2.ID)
	}

	// Release the owner and finish via a third node's fan-out lookup.
	for _, tn := range nodes {
		if tn.url == owner {
			tn.stall.Store(false)
			close(tn.gate)
		}
	}
	st := waitDone(t, nodes[2].url, sub1.ID, 30*time.Second)
	if st.Owner != owner {
		t.Fatalf("job owner %q, want ring owner %q", st.Owner, owner)
	}

	// Exactly one node did the work.
	executed := 0
	for _, tn := range nodes {
		if tn.evals.Load() > 0 {
			if tn.url != owner {
				t.Fatalf("node %s executed evaluations but %s owns the key", tn.url, owner)
			}
			executed++
		}
	}
	if executed != 1 {
		t.Fatalf("%d nodes executed the study, want exactly 1", executed)
	}

	// The cluster status surface sees all three peers alive.
	resp, err := http.Get(nodes[2].url + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var status cluster.Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Peers) != 3 {
		t.Fatalf("status reports %d peers, want 3", len(status.Peers))
	}
	for _, p := range status.Peers {
		if !p.Alive {
			t.Fatalf("peer %s reported dead in a healthy cluster", p.URL)
		}
	}
}

// TestClusterPeerCacheFill: after one node computes a study, a forced-
// local re-run on a cold node is served entirely by the peer cache tier
// — zero evaluations — and returns a bit-identical result.
func TestClusterPeerCacheFill(t *testing.T) {
	nodes := newTestCluster(t, 3, 10*time.Second, 100*time.Millisecond)
	req := tinyStudy(10)

	_, sub := submitTo(t, nodes[0].url, req, false)
	first := waitDone(t, nodes[0].url, sub.ID, 60*time.Second)

	// Let the async push replication quiesce: every fresh entry reaches
	// its cache-key ring owner before the cold node asks.
	waitPushes := func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			pending := int64(0)
			for _, tn := range nodes {
				pending += tn.node.PendingPushes()
			}
			if pending == 0 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("cache pushes never drained")
	}
	waitPushes()

	// Pick a node that did no work: its only copies are peer copies.
	var cold *testNode
	for _, tn := range nodes {
		if tn.evals.Load() == 0 {
			cold = tn
			break
		}
	}
	if cold == nil {
		t.Fatal("every node executed evaluations; dedup is broken")
	}

	// Forced local (hop guard set): the cold node must execute the study
	// itself — but every design point fills from peers.
	resp, sub2 := submitTo(t, cold.url, req, true)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forced-local submit: HTTP %d, want 202", resp.StatusCode)
	}
	// (ids are minted per node and may coincide across nodes for the
	// same key; the lookup below hits the cold node's local job first.)
	second := waitDone(t, cold.url, sub2.ID, 60*time.Second)
	if got := cold.evals.Load(); got != 0 {
		t.Fatalf("cold node executed %d evaluations, want 0 (peer cache)", got)
	}
	if cold.cache.Stats().PeerHits == 0 {
		t.Fatal("cold node reported no peer cache hits")
	}
	if second.Owner != cold.url {
		t.Fatalf("forced-local job owner %q, want %q (hop guard must pin execution)", second.Owner, cold.url)
	}

	// Determinism across nodes: byte-identical design content. (The
	// execution-accounting fields — totalEvals, cacheHits, elapsed —
	// legitimately differ: the cold run IS the all-cache-hit run.)
	type designOnly struct {
		Best       any `json:"best"`
		Candidates any `json:"candidates"`
	}
	canon := func(st service.JobStatus) []byte {
		blob, _ := json.Marshal(st.Result)
		var d designOnly
		if err := json.Unmarshal(blob, &d); err != nil {
			t.Fatal(err)
		}
		out, _ := json.Marshal(d)
		return out
	}
	a, b := canon(first), canon(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("designs differ across nodes:\n%s\nvs\n%s", a, b)
	}
	if second.Result == nil || second.Result.TotalEvals != 0 {
		t.Fatalf("cold run reported %d engine evaluations, want 0", second.Result.TotalEvals)
	}
}

// TestClusterLeaseTakeover: kill the node that owns a running job; its
// lease expires, the ring successor re-enqueues the SAME job id via the
// recovery path (the stream opens with a "recovered" event), and the
// job completes on the survivor.
func TestClusterLeaseTakeover(t *testing.T) {
	lease := 400 * time.Millisecond
	nodes := newTestCluster(t, 3, lease, 50*time.Millisecond)
	req := tinyStudy(10)
	owner := nodes[0].node.Ring().Owner(jobKey(t, req))

	var ownerNode *testNode
	var survivor *testNode
	for _, tn := range nodes {
		if tn.url == owner {
			ownerNode = tn
		} else {
			survivor = tn
		}
	}
	ownerNode.stall.Store(true) // the job must still be running at kill time

	_, sub := submitTo(t, survivor.url, req, false)

	// The claim replicates on admission; give the control plane a beat,
	// then crash the owner without ceremony.
	time.Sleep(2 * lease / 3)
	ownerNode.kill()

	st := waitDone(t, survivor.url, sub.ID, 60*time.Second)
	if st.ID != sub.ID {
		t.Fatalf("takeover changed the job id: %s → %s", sub.ID, st.ID)
	}
	if st.Owner == owner {
		t.Fatalf("finished job still owned by the dead node %s", owner)
	}

	// Exactly one survivor took it over.
	takeovers := int64(0)
	for _, tn := range nodes {
		if tn != ownerNode {
			takeovers += tn.node.Takeovers()
		}
	}
	if takeovers != 1 {
		t.Fatalf("%d takeovers recorded, want 1", takeovers)
	}

	// The re-enqueued job announces itself as recovered on its stream.
	resp, err := http.Get(survivor.url + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawRecovered := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Kind == "recovered" {
			sawRecovered = true
			break
		}
	}
	if !sawRecovered {
		t.Fatal("takeover job stream has no recovered event")
	}

	// Release the dead node's stalled evaluation goroutines for cleanup.
	close(ownerNode.gate)
}

// TestClusterForwardedLookupMiss: a forwarded job lookup that misses
// locally answers 404 instead of fanning back out (the hop guard, read
// side).
func TestClusterForwardedLookupMiss(t *testing.T) {
	nodes := newTestCluster(t, 3, 10*time.Second, 100*time.Millisecond)
	_, sub := submitTo(t, nodes[0].url, tinyStudy(10), false)
	waitDone(t, nodes[0].url, sub.ID, 60*time.Second)

	// Find a node that does NOT hold the job locally.
	var absent *testNode
	for _, tn := range nodes {
		if _, ok := tn.man.Get(sub.ID); !ok {
			absent = tn
			break
		}
	}
	if absent == nil {
		t.Skip("job present on every node (single-node ring?)")
	}
	hreq, _ := http.NewRequest(http.MethodGet, absent.url+"/v1/jobs/"+sub.ID, nil)
	hreq.Header.Set(cluster.ForwardedHeader, "test")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("forwarded lookup of absent job: HTTP %d, want 404", resp.StatusCode)
	}
	// Unforwarded, the same node finds it by fan-out.
	resp2, err := http.Get(absent.url + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fan-out lookup: HTTP %d, want 200", resp2.StatusCode)
	}
}
