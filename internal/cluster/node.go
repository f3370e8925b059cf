package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pipesyn/internal/service"
	"pipesyn/internal/synth"
)

// ForwardedHeader is the hop guard: a proxied request carries the entry
// node's identity here, and a node that receives it executes locally no
// matter what its ring says. One hop maximum — transient membership
// disagreement can never loop a request around the cluster.
const ForwardedHeader = "X-Adcsyn-Forwarded"

// Config shapes one cluster node.
type Config struct {
	// Self is this node's advertised base URL (how peers reach it),
	// e.g. "http://10.0.0.3:8080".
	Self string
	// Peers is the full membership, Self included (it is added if
	// missing). Order is irrelevant; the ring is deterministic in the
	// set.
	Peers []string
	// VirtualNodes per peer on the ring (<=0 = DefaultVirtualNodes).
	VirtualNodes int
	// LeaseDuration is how long a job claim lives without renewal
	// (default 10s). The owner renews at a third of this; a successor
	// fires takeover only after expiry AND a failed owner heartbeat.
	LeaseDuration time.Duration
	// HeartbeatEvery is the peer probe cadence (default 1s).
	HeartbeatEvery time.Duration
	// AggregateMetrics makes /metrics scrape every peer's health at
	// exposition time, so the per-peer adcsynd_cluster_* gauges are
	// fresh rather than one heartbeat old.
	AggregateMetrics bool
	// Logf receives operational one-liners (nil = silent).
	Logf func(format string, args ...any)
}

// Health is the GET /v1/cluster/health body — the heartbeat payload and
// the per-peer numbers the status/metrics surfaces re-export.
type Health struct {
	Node          string    `json:"node"`
	Ready         bool      `json:"ready"`
	Draining      bool      `json:"draining"`
	QueueDepth    int       `json:"queueDepth"`
	QueueCapacity int       `json:"queueCapacity"`
	PoolInFlight  int64     `json:"poolInflight"`
	RunningJobs   int       `json:"runningJobs"`
	QueuedJobs    int       `json:"queuedJobs"`
	StandbyJobs   int       `json:"standbyJobs"`
	Time          time.Time `json:"time"`
}

// PeerStatus is one membership row of GET /v1/cluster/status.
type PeerStatus struct {
	URL      string    `json:"url"`
	Self     bool      `json:"self,omitempty"`
	Alive    bool      `json:"alive"`
	LastSeen time.Time `json:"lastSeen,omitempty"`
	Error    string    `json:"error,omitempty"`
	Health   *Health   `json:"health,omitempty"`
}

// Status is the GET /v1/cluster/status body: the ring view plus every
// peer's last-known health.
type Status struct {
	Self      string       `json:"self"`
	VNodes    int          `json:"vnodes"`
	Peers     []PeerStatus `json:"peers"`
	Standby   int          `json:"standbyJobs"`
	Takeovers int64        `json:"takeovers"`
}

// replicateMsg is the POST /v1/cluster/replicate body: the owner hands
// its ring successor enough to re-run the job — the id, the request,
// and the lease deadline. A terminal State releases the replica.
type replicateMsg struct {
	ID    string                `json:"id"`
	Key   string                `json:"key"`
	Owner string                `json:"owner"`
	Lease time.Time             `json:"lease"`
	State service.State         `json:"state"`
	Req   *service.StudyRequest `json:"req,omitempty"`
}

type peerInfo struct {
	alive    bool
	lastSeen time.Time
	lastErr  string
	health   Health
}

// standbyJob is a replica held for a peer: re-enqueued locally iff the
// lease expires while the owner is unreachable.
type standbyJob struct {
	id    string
	key   string
	owner string
	lease time.Time
	req   service.StudyRequest
}

// ownedJob tracks a locally admitted cluster job for lease renewal.
type ownedJob struct {
	id  string
	key string
}

type pushItem struct {
	key string
	res *synth.Result
}

// Node is one member of a sharded adcsynd cluster: it owns the ring
// view, probes peers, replicates its jobs to ring successors, takes
// over expired leases, and (as an http.Handler, see handler.go) routes
// job traffic to ring owners.
type Node struct {
	cfg    Config
	ring   *Ring
	man    *service.Manager
	cache  *synth.Cache
	local  *service.Server
	mux    *http.ServeMux
	client *http.Client // short-deadline control traffic
	stream *http.Client // proxied job traffic; bounded by request contexts

	mu      sync.Mutex
	peers   map[string]*peerInfo
	standby map[string]*standbyJob
	owned   map[string]*ownedJob

	pushq       chan pushItem
	pushPending atomic.Int64

	proxiedSubmits    atomic.Int64
	proxiedLookups    atomic.Int64
	proxyFallbacks    atomic.Int64
	fillHits          atomic.Int64
	fillMisses        atomic.Int64
	pushSent          atomic.Int64
	pushDropped       atomic.Int64
	replicatedOut     atomic.Int64
	replicatedIn      atomic.Int64
	takeovers         atomic.Int64
	heartbeatFailures atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewNode builds a node over a started Manager, its synthesis cache,
// and the local HTTP surface. Callers wire the cache into the cluster
// tier with cache.SetFill(node.CacheFill) and
// cache.SetPush(node.CachePush), then node.Start() the loops.
func NewNode(cfg Config, man *service.Manager, cache *synth.Cache, local *service.Server) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self (advertised URL) is required")
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = 10 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	peers := append([]string(nil), cfg.Peers...)
	peers = append(peers, cfg.Self)
	ring := NewRing(peers, cfg.VirtualNodes)
	if ring.Len() < 2 {
		return nil, fmt.Errorf("cluster: need at least one peer besides %s", cfg.Self)
	}
	n := &Node{
		cfg:     cfg,
		ring:    ring,
		man:     man,
		cache:   cache,
		local:   local,
		client:  &http.Client{Timeout: 5 * time.Second},
		stream:  &http.Client{}, // no client timeout: streams end with their request context
		peers:   make(map[string]*peerInfo),
		standby: make(map[string]*standbyJob),
		owned:   make(map[string]*ownedJob),
		pushq:   make(chan pushItem, 1024),
		stop:    make(chan struct{}),
	}
	for _, p := range ring.Peers() {
		if p != cfg.Self {
			n.peers[p] = &peerInfo{}
		}
	}
	n.mux = n.routes()
	return n, nil
}

// Ring exposes the node's ring view (read-only).
func (n *Node) Ring() *Ring { return n.ring }

// Start launches the heartbeat, lease-renewal, takeover-watch, and
// cache-push loops.
func (n *Node) Start() {
	n.heartbeatAll() // prime liveness before the first tick
	loops := []func(){n.heartbeatLoop, n.renewLoop, n.watchLoop, n.pushLoop}
	n.wg.Add(len(loops))
	for _, loop := range loops {
		go func(f func()) { defer n.wg.Done(); f() }(loop)
	}
}

// Stop halts the background loops without touching peers — the
// kill-path teardown tests use it to simulate a silent death.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.wg.Wait()
}

// Shutdown releases the node's cluster obligations after the manager
// has drained: every tracked job's replica is released with its
// terminal state so successors do not resurrect drained work, then the
// loops stop.
func (n *Node) Shutdown() {
	n.renewOwned(true)
	n.Stop()
}

func (n *Node) heartbeatLoop() {
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.heartbeatAll()
		}
	}
}

func (n *Node) heartbeatAll() {
	for _, peer := range n.ring.Peers() {
		if peer == n.cfg.Self {
			continue
		}
		h, err := n.fetchHealth(peer)
		n.mu.Lock()
		pi := n.peers[peer]
		wasAlive := pi.alive
		if err != nil {
			pi.alive = false
			pi.lastErr = err.Error()
		} else {
			pi.alive = true
			pi.lastSeen = time.Now()
			pi.lastErr = ""
			pi.health = *h
		}
		n.mu.Unlock()
		if err != nil {
			n.heartbeatFailures.Add(1)
			if wasAlive {
				n.cfg.Logf("cluster: peer %s unreachable: %v", peer, err)
			}
		} else if !wasAlive {
			n.cfg.Logf("cluster: peer %s reachable", peer)
		}
	}
}

func (n *Node) fetchHealth(peer string) (*Health, error) {
	resp, err := n.client.Get(peer + "/v1/cluster/health")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("health: HTTP %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("health decode: %w", err)
	}
	return &h, nil
}

// localHealth assembles this node's heartbeat payload.
func (n *Node) localHealth() Health {
	snap := n.man.Snapshot()
	n.mu.Lock()
	standby := len(n.standby)
	n.mu.Unlock()
	return Health{
		Node:          n.cfg.Self,
		Ready:         n.man.Ready(),
		Draining:      snap.Draining,
		QueueDepth:    snap.QueueDepth,
		QueueCapacity: snap.QueueCapacity,
		PoolInFlight:  snap.PoolInFlight,
		RunningJobs:   snap.JobsByState[service.StateRunning],
		QueuedJobs:    snap.JobsByState[service.StateQueued],
		StandbyJobs:   standby,
		Time:          time.Now(),
	}
}

// peerAlive reports the last heartbeat verdict for peer (self is always
// alive).
func (n *Node) peerAlive(peer string) bool {
	if peer == n.cfg.Self {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	pi, ok := n.peers[peer]
	return ok && pi.alive
}

// alivePeers returns the peers (never self) currently passing
// heartbeats, in ring-sorted order.
func (n *Node) alivePeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, p := range n.ring.Peers() {
		if p == n.cfg.Self {
			continue
		}
		if pi, ok := n.peers[p]; ok && pi.alive {
			out = append(out, p)
		}
	}
	return out
}

// replicaTarget picks where a job replica for key lives: the first
// alive peer (never self) walking the ring from the key's owner. With
// everyone up and self the owner, that is the ring successor.
func (n *Node) replicaTarget(key string) string {
	for _, p := range n.ring.Successors(key, n.ring.Len()) {
		if p == n.cfg.Self {
			continue
		}
		if n.peerAlive(p) {
			return p
		}
	}
	return ""
}

// trackOwned registers a locally admitted job for lease replication and
// immediately replicates its claim.
func (n *Node) trackOwned(job *service.Job) {
	if job == nil {
		return
	}
	n.mu.Lock()
	n.owned[job.ID] = &ownedJob{id: job.ID, key: job.Key}
	n.mu.Unlock()
	n.replicateJob(job.ID, job.Key, job.Req, job.State())
}

// replicateJob sends one claim (or release, when state is terminal) for
// a job to its replica target. Best-effort: an unreachable target is
// retried on the next renewal tick.
func (n *Node) replicateJob(id, key string, req service.StudyRequest, state service.State) {
	target := n.replicaTarget(key)
	if target == "" {
		return
	}
	msg := replicateMsg{
		ID: id, Key: key, Owner: n.cfg.Self,
		Lease: time.Now().Add(n.cfg.LeaseDuration),
		State: state,
	}
	if !state.Terminal() {
		r := req
		msg.Req = &r
	}
	blob, err := json.Marshal(msg)
	if err != nil {
		return
	}
	resp, err := n.client.Post(target+"/v1/cluster/replicate", "application/json", bytes.NewReader(blob))
	if err != nil {
		n.cfg.Logf("cluster: replicate %s to %s: %v", id, target, err)
		return
	}
	resp.Body.Close()
	n.replicatedOut.Add(1)
}

func (n *Node) renewLoop() {
	every := n.cfg.LeaseDuration / 3
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.renewOwned(false)
		}
	}
}

// renewOwned re-replicates every tracked job's claim; terminal jobs are
// released and untracked. With final=true (shutdown) still-live jobs
// are released too — the daemon is leaving the cluster and its drained
// work must not be resurrected.
func (n *Node) renewOwned(final bool) {
	n.mu.Lock()
	owned := make([]*ownedJob, 0, len(n.owned))
	for _, o := range n.owned {
		owned = append(owned, o)
	}
	n.mu.Unlock()
	for _, o := range owned {
		job, ok := n.man.Get(o.id)
		if !ok {
			// Evicted from the retention ring: long terminal. Release.
			n.replicateJob(o.id, o.key, service.StudyRequest{}, service.StateDone)
			n.untrack(o.id)
			continue
		}
		state := job.State()
		if state.Terminal() || final {
			if !state.Terminal() {
				state = service.StateCancelled // draining release
			}
			n.replicateJob(o.id, o.key, job.Req, state)
			n.untrack(o.id)
			continue
		}
		n.replicateJob(o.id, o.key, job.Req, state)
	}
}

func (n *Node) untrack(id string) {
	n.mu.Lock()
	delete(n.owned, id)
	n.mu.Unlock()
}

// handleReplicate ingests a peer's claim: terminal states release the
// replica, live ones upsert it with the fresh lease.
func (n *Node) handleReplicate(msg replicateMsg) {
	n.replicatedIn.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.State.Terminal() {
		delete(n.standby, msg.ID)
		return
	}
	if msg.Req == nil {
		return
	}
	n.standby[msg.ID] = &standbyJob{
		id: msg.ID, key: msg.Key, owner: msg.Owner,
		lease: msg.Lease, req: *msg.Req,
	}
}

func (n *Node) watchLoop() {
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.checkLeases()
		}
	}
}

// checkLeases fires takeover for every standby job whose lease expired
// while its owner fails heartbeats: the job is re-enqueued here under
// the same id via the recovery path (it opens with a "recovered"
// event), then tracked and re-replicated onward so the work stays
// protected. An expired lease with a LIVE owner is left alone — slow
// renewal is not death — but dropped once it is stale beyond doubt
// (10 lease periods), so a restarted owner's forgotten claims do not
// pin memory forever.
func (n *Node) checkLeases() {
	now := time.Now()
	n.mu.Lock()
	var expired []*standbyJob
	for _, sb := range n.standby {
		if now.After(sb.lease) {
			expired = append(expired, sb)
		}
	}
	n.mu.Unlock()
	for _, sb := range expired {
		if n.peerAlive(sb.owner) {
			if now.Sub(sb.lease) > 10*n.cfg.LeaseDuration {
				n.mu.Lock()
				delete(n.standby, sb.id)
				n.mu.Unlock()
			}
			continue
		}
		job, accepted, err := n.man.Resubmit(sb.id, sb.req)
		if err == service.ErrQueueFull {
			continue // retry next tick
		}
		n.mu.Lock()
		delete(n.standby, sb.id)
		n.mu.Unlock()
		if err != nil {
			n.cfg.Logf("cluster: takeover of %s from %s failed: %v", sb.id, sb.owner, err)
			continue
		}
		if accepted {
			n.takeovers.Add(1)
			n.cfg.Logf("cluster: lease on %s expired (owner %s down): job re-enqueued here", sb.id, sb.owner)
			n.trackOwned(job)
		}
	}
}

// CacheFill is the synthesis cache's peer tier: on a local miss, ask
// the key's ring owner for its copy (GET /v1/cache/{key}, gob — the
// disk-store format). Wire it with cache.SetFill(node.CacheFill).
func (n *Node) CacheFill(key string) (*synth.Result, bool) {
	owner := n.ring.Owner(key)
	if owner == n.cfg.Self || !n.peerAlive(owner) {
		return nil, false
	}
	resp, err := n.client.Get(owner + "/v1/cache/" + key)
	if err != nil {
		n.fillMisses.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.fillMisses.Add(1)
		return nil, false
	}
	res, err := synth.DecodeResult(resp.Body)
	if err != nil {
		n.fillMisses.Add(1)
		return nil, false
	}
	n.fillHits.Add(1)
	return res, true
}

// CachePush replicates a fresh cache entry to the key's ring owner so
// any peer's later CacheFill finds it there. Asynchronous and bounded:
// the synthesis hot path only enqueues; a full queue drops the push
// (the entry still lives locally — worst case a peer recomputes). Wire
// it with cache.SetPush(node.CachePush).
func (n *Node) CachePush(key string, res *synth.Result) {
	owner := n.ring.Owner(key)
	if owner == n.cfg.Self {
		return // already at the authority
	}
	select {
	case n.pushq <- pushItem{key, res}:
		n.pushPending.Add(1)
	default:
		n.pushDropped.Add(1)
	}
}

func (n *Node) pushLoop() {
	for {
		select {
		case <-n.stop:
			return
		case it := <-n.pushq:
			n.sendPush(it)
			n.pushPending.Add(-1)
		}
	}
}

func (n *Node) sendPush(it pushItem) {
	owner := n.ring.Owner(it.key)
	if owner == n.cfg.Self || !n.peerAlive(owner) {
		n.pushDropped.Add(1)
		return
	}
	var buf bytes.Buffer
	if err := synth.EncodeResult(&buf, it.res); err != nil {
		n.pushDropped.Add(1)
		return
	}
	req, err := http.NewRequest(http.MethodPut, owner+"/v1/cache/"+it.key, &buf)
	if err != nil {
		n.pushDropped.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := n.client.Do(req)
	if err != nil {
		n.pushDropped.Add(1)
		return
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		n.pushDropped.Add(1)
		return
	}
	n.pushSent.Add(1)
}

// status assembles the /v1/cluster/status body.
func (n *Node) status() Status {
	st := Status{
		Self:      n.cfg.Self,
		VNodes:    n.ring.VNodes(),
		Takeovers: n.takeovers.Load(),
	}
	self := n.localHealth()
	n.mu.Lock()
	st.Standby = len(n.standby)
	for _, p := range n.ring.Peers() {
		if p == n.cfg.Self {
			h := self
			st.Peers = append(st.Peers, PeerStatus{URL: p, Self: true, Alive: true, LastSeen: h.Time, Health: &h})
			continue
		}
		pi := n.peers[p]
		ps := PeerStatus{URL: p, Alive: pi.alive, LastSeen: pi.lastSeen, Error: pi.lastErr}
		if pi.alive {
			h := pi.health
			ps.Health = &h
		}
		st.Peers = append(st.Peers, ps)
	}
	n.mu.Unlock()
	return st
}
