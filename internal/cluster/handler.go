// HTTP face of a cluster node: the same public API the single-node
// daemon serves, plus the peer protocol. Job traffic is routed by the
// consistent-hash ring — a submit whose key hashes to a peer is proxied
// there (one hop, guarded by ForwardedHeader), a status/cancel/events
// request for a job this node does not hold fans out to alive peers —
// while /v1/cluster/* and /v1/cache/* carry membership, replication,
// and the shared cache tier between nodes.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"pipesyn/internal/service"
	"pipesyn/internal/synth"
)

func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

func (n *Node) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/health", n.handleHealth)
	mux.HandleFunc("GET /v1/cluster/status", n.handleStatus)
	mux.HandleFunc("POST /v1/cluster/replicate", n.handleReplicateHTTP)
	mux.HandleFunc("GET /v1/cache/{key}", n.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", n.handleCachePut)
	mux.HandleFunc("POST /v1/cache/{key}", n.handleCachePut)
	mux.HandleFunc("POST /v1/studies", n.handleSubmit)
	mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	for _, base := range []string{"/v1/studies", "/v1/jobs"} {
		mux.HandleFunc("GET "+base+"/{id}", n.handleJobRoute)
		mux.HandleFunc("GET "+base+"/{id}/events", n.handleJobRoute)
		mux.HandleFunc("DELETE "+base+"/{id}", n.handleJobRoute)
	}
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("/", n.local.ServeHTTP)
	return mux
}

func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.localHealth())
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.status())
}

func (n *Node) handleReplicateHTTP(w http.ResponseWriter, r *http.Request) {
	var msg replicateMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, service.MaxStudyBodyBytes)).Decode(&msg); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode replicate: %w", err))
		return
	}
	if msg.ID == "" || msg.Owner == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("replicate: id and owner are required"))
		return
	}
	n.handleReplicate(msg)
	w.WriteHeader(http.StatusNoContent)
}

// handleCacheGet serves this node's synthesis cache to peers in the
// disk-store gob format. Strictly local tiers — a miss is a 404, never
// a recursive fill.
func (n *Node) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	res, ok := n.cache.GetLocal(r.PathValue("key"))
	if !ok {
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = synth.EncodeResult(w, res)
}

// handleCachePut ingests a peer's pushed entry. PutLocal, not Put: the
// entry lands here and stops — no onward push under a disagreeing ring.
func (n *Node) handleCachePut(w http.ResponseWriter, r *http.Request) {
	res, err := synth.DecodeResult(http.MaxBytesReader(w, r.Body, maxCacheEntryBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode cache entry: %w", err))
		return
	}
	n.cache.PutLocal(r.PathValue("key"), res)
	w.WriteHeader(http.StatusNoContent)
}

// maxCacheEntryBytes bounds a pushed cache entry: a sized design point
// is a few kilobytes of gob; a megabyte is ample.
const maxCacheEntryBytes = 1 << 20

// handleSubmit routes a study to the ring owner of its job key. Local
// execution when: this node owns the key, the owner fails heartbeats
// (degraded mode — wrong shard beats no service), or the request is
// already forwarded (hop guard). Otherwise the decoded request is
// re-posted to the owner and the reply relayed verbatim, falling back
// to local execution only when the proxy transport itself fails (no
// response bytes written yet, so the retry is invisible to the client).
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := service.DecodeStudyRequest(w, r)
	if !ok {
		return
	}
	opts, err := req.Options()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	key := req.JobKey(opts)
	owner := n.ring.Owner(key)
	forwarded := r.Header.Get(ForwardedHeader) != ""
	if forwarded || owner == n.cfg.Self || !n.peerAlive(owner) {
		n.submitLocal(w, req)
		return
	}
	n.proxiedSubmits.Add(1)
	blob, merr := json.Marshal(req)
	if merr != nil {
		httpError(w, http.StatusBadRequest, merr)
		return
	}
	preq, perr := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+r.URL.Path, bytes.NewReader(blob))
	if perr != nil {
		httpError(w, http.StatusInternalServerError, perr)
		return
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(ForwardedHeader, n.cfg.Self)
	resp, derr := n.client.Do(preq)
	if derr != nil {
		// Transport failure before any response byte: degrade to local.
		n.proxyFallbacks.Add(1)
		n.cfg.Logf("cluster: submit proxy to %s failed (%v): executing locally", owner, derr)
		n.submitLocal(w, req)
		return
	}
	defer resp.Body.Close()
	relayResponse(w, resp, nil)
}

func (n *Node) submitLocal(w http.ResponseWriter, req service.StudyRequest) {
	job, fresh := n.local.WriteSubmit(w, req)
	if fresh {
		n.trackOwned(job)
	}
}

// handleJobRoute serves status/events/cancel. The job lives wherever it
// was admitted (ids are minted per node), so: local hit → local server;
// local miss on a forwarded request → honest 404; local miss otherwise
// → fan out to alive peers with the hop guard set and relay the first
// non-404 answer, streaming (flush per chunk) so proxied event feeds
// stay live.
func (n *Node) handleJobRoute(w http.ResponseWriter, r *http.Request) {
	if _, ok := n.man.Get(r.PathValue("id")); ok {
		n.local.ServeHTTP(w, r)
		return
	}
	if r.Header.Get(ForwardedHeader) != "" {
		n.local.ServeHTTP(w, r) // its 404
		return
	}
	n.proxiedLookups.Add(1)
	for _, peer := range n.alivePeers() {
		url := peer + r.URL.Path
		if q := r.URL.RawQuery; q != "" {
			url += "?" + q
		}
		preq, err := http.NewRequestWithContext(r.Context(), r.Method, url, nil)
		if err != nil {
			continue
		}
		preq.Header.Set(ForwardedHeader, n.cfg.Self)
		resp, err := n.stream.Do(preq)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		flusher, _ := w.(http.Flusher)
		relayResponse(w, resp, flusher)
		resp.Body.Close()
		return
	}
	n.local.ServeHTTP(w, r) // nobody has it: the local 404
}

// relayResponse copies status, headers, and body. With a non-nil
// flusher every read is flushed through, which keeps proxied NDJSON
// event streams delivering lines as they happen instead of on buffer
// boundaries.
func relayResponse(w http.ResponseWriter, resp *http.Response, flusher http.Flusher) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if flusher == nil {
		_, _ = io.Copy(w, resp.Body)
		return
	}
	buf := make([]byte, 32*1024)
	for {
		m, err := resp.Body.Read(buf)
		if m > 0 {
			if _, werr := w.Write(buf[:m]); werr != nil {
				return
			}
			flusher.Flush()
		}
		if err != nil {
			return
		}
	}
}

// handleMetrics renders the local exposition, then appends the
// adcsynd_cluster_* series. In aggregation mode every peer is probed
// synchronously first so the per-peer gauges are scrape-fresh rather
// than one heartbeat old.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if n.cfg.AggregateMetrics {
		n.heartbeatAll()
	}
	n.local.ServeHTTP(w, r)
	n.writeClusterMetrics(w)
}

func (n *Node) writeClusterMetrics(w io.Writer) {
	st := n.status()
	fmt.Fprintf(w, "# HELP adcsynd_cluster_peers Cluster membership size (ring view).\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_peers gauge\n")
	fmt.Fprintf(w, "adcsynd_cluster_peers %d\n", n.ring.Len())
	fmt.Fprintf(w, "# HELP adcsynd_cluster_ring_vnodes Virtual nodes per peer on the hash ring.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_ring_vnodes gauge\n")
	fmt.Fprintf(w, "adcsynd_cluster_ring_vnodes %d\n", n.ring.VNodes())

	fmt.Fprintf(w, "# HELP adcsynd_cluster_peer_up Peer passes heartbeats (1) or not (0); self is always 1.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_peer_up gauge\n")
	fmt.Fprintf(w, "# HELP adcsynd_cluster_peer_queue_depth Last-heartbeat queue depth per peer.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_peer_queue_depth gauge\n")
	fmt.Fprintf(w, "# HELP adcsynd_cluster_peer_inflight Last-heartbeat pool in-flight evaluations per peer.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_peer_inflight gauge\n")
	peers := append([]PeerStatus(nil), st.Peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i].URL < peers[j].URL })
	for _, p := range peers {
		up := 0
		if p.Alive {
			up = 1
		}
		fmt.Fprintf(w, "adcsynd_cluster_peer_up{peer=%q} %d\n", p.URL, up)
		if p.Health != nil {
			fmt.Fprintf(w, "adcsynd_cluster_peer_queue_depth{peer=%q} %d\n", p.URL, p.Health.QueueDepth)
			fmt.Fprintf(w, "adcsynd_cluster_peer_inflight{peer=%q} %d\n", p.URL, p.Health.PoolInFlight)
		}
	}

	fmt.Fprintf(w, "# HELP adcsynd_cluster_proxied_total Requests routed to a peer, by kind.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_proxied_total counter\n")
	fmt.Fprintf(w, "adcsynd_cluster_proxied_total{kind=\"submit\"} %d\n", n.proxiedSubmits.Load())
	fmt.Fprintf(w, "adcsynd_cluster_proxied_total{kind=\"lookup\"} %d\n", n.proxiedLookups.Load())
	fmt.Fprintf(w, "# HELP adcsynd_cluster_proxy_fallbacks_total Submits executed locally after a failed proxy transport.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_proxy_fallbacks_total counter\n")
	fmt.Fprintf(w, "adcsynd_cluster_proxy_fallbacks_total %d\n", n.proxyFallbacks.Load())

	fmt.Fprintf(w, "# HELP adcsynd_cluster_cache_fill_hits_total Synthesis cache misses answered by a peer.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_cache_fill_hits_total counter\n")
	fmt.Fprintf(w, "adcsynd_cluster_cache_fill_hits_total %d\n", n.fillHits.Load())
	fmt.Fprintf(w, "# HELP adcsynd_cluster_cache_fill_misses_total Peer cache probes that found nothing.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_cache_fill_misses_total counter\n")
	fmt.Fprintf(w, "adcsynd_cluster_cache_fill_misses_total %d\n", n.fillMisses.Load())
	fmt.Fprintf(w, "# HELP adcsynd_cluster_cache_push_total Cache entries replicated to ring owners, by result.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_cache_push_total counter\n")
	fmt.Fprintf(w, "adcsynd_cluster_cache_push_total{result=\"sent\"} %d\n", n.pushSent.Load())
	fmt.Fprintf(w, "adcsynd_cluster_cache_push_total{result=\"dropped\"} %d\n", n.pushDropped.Load())
	fmt.Fprintf(w, "# HELP adcsynd_cluster_cache_push_pending Cache pushes queued or in flight to ring owners.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_cache_push_pending gauge\n")
	fmt.Fprintf(w, "adcsynd_cluster_cache_push_pending %d\n", n.pushPending.Load())

	fmt.Fprintf(w, "# HELP adcsynd_cluster_replicated_total Job claims replicated, by direction.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_replicated_total counter\n")
	fmt.Fprintf(w, "adcsynd_cluster_replicated_total{dir=\"out\"} %d\n", n.replicatedOut.Load())
	fmt.Fprintf(w, "adcsynd_cluster_replicated_total{dir=\"in\"} %d\n", n.replicatedIn.Load())
	fmt.Fprintf(w, "# HELP adcsynd_cluster_takeovers_total Jobs re-enqueued here after a peer's lease expired.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_takeovers_total counter\n")
	fmt.Fprintf(w, "adcsynd_cluster_takeovers_total %d\n", n.takeovers.Load())
	fmt.Fprintf(w, "# HELP adcsynd_cluster_standby_jobs Peer job replicas held for lease watch.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_standby_jobs gauge\n")
	fmt.Fprintf(w, "adcsynd_cluster_standby_jobs %d\n", st.Standby)
	fmt.Fprintf(w, "# HELP adcsynd_cluster_heartbeat_failures_total Failed peer health probes.\n")
	fmt.Fprintf(w, "# TYPE adcsynd_cluster_heartbeat_failures_total counter\n")
	fmt.Fprintf(w, "adcsynd_cluster_heartbeat_failures_total %d\n", n.heartbeatFailures.Load())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}
