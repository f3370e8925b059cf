// Command adcsynd is the long-running synthesis service: the paper's
// batch flow (enumerate candidates, synthesize every distinct MDAC, rank
// by power) wrapped in an HTTP API with a bounded job queue, streamed
// per-stage progress, Prometheus metrics, and graceful drain.
//
// Usage:
//
//	adcsynd [-addr :8080] [-workers 0] [-queue 16] [-executors 1]
//	        [-cache-dir DIR] [-state-dir DIR] [-retain 256] [-retain-age 1h]
//	        [-job-timeout 0] [-race-default] [-drain-timeout 30s] [-pprof ADDR]
//	        [-node URL -peers URL,URL,... [-vnodes 64] [-lease 10s]
//	         [-heartbeat 1s] [-metrics-aggregate]]
//
// Endpoints:
//
//	POST   /v1/studies            submit {bits, fs, vref, mode, evals, ...}
//	                              mode "yield" adds {draws, minEnob}: a
//	                              Monte-Carlo sign-off job that synthesizes,
//	                              then samples mismatch draws — progress
//	                              streams as yield_chunk events, results
//	                              carry the ENOB/SNDR distributions + yield
//	GET    /v1/studies            list jobs (?state= filters; /v1/jobs alias)
//	GET    /v1/studies/{id}       status + result
//	GET    /v1/studies/{id}/events NDJSON progress stream
//	DELETE /v1/studies/{id}       cancel
//	GET    /metrics               Prometheus text format
//	GET    /healthz               liveness (always 200 while serving)
//	GET    /readyz                readiness (503 while draining or replaying)
//
// -race-default normalizes every submitted study onto the
// successive-halving racing scheduler (DESIGN.md §5.9) at admission, so
// the daemon's dedup keys, journal, and cluster routing all see the
// normalized request; in cluster mode set it identically on every node.
//
// Identical concurrent submissions (same content address over every
// study-shaping knob) share one execution. A full queue answers 429 with
// a Retry-After computed from the observed drain rate rather than
// queueing unboundedly. On SIGTERM/SIGINT the daemon stops admitting,
// rejects queued jobs, gives in-flight jobs -drain-timeout to finish,
// then cancels them and exits.
//
// Cluster mode (-node + -peers) shards the daemon with a consistent-hash
// ring: submits route to the key's ring owner (so identical studies
// dedupe cluster-wide), cache misses fill from peers, and each admitted
// job's claim is lease-replicated to a ring successor that re-enqueues
// it under the same id if the owner dies. Adds /v1/cluster/health,
// /v1/cluster/status, /v1/cluster/replicate, and /v1/cache/{key}.
// See DESIGN.md §5.8.
//
// With -state-dir set, every admitted job is journaled to an fsync'd
// append-only log: after a crash (kill -9 included) a restart with the
// same -state-dir re-enqueues the jobs that were queued or running and
// restores recent terminal results — recovered work replays from the
// synthesis cache, so it costs roughly one cache sweep. Terminal jobs
// are kept queryable in a ring bounded by -retain / -retain-age; older
// ones are evicted so the daemon's memory stays flat under sustained
// traffic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pipesyn/internal/cluster"
	"pipesyn/internal/service"
	"pipesyn/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "synthesis worker budget shared by all jobs (0 = all cores)")
	queueCap := flag.Int("queue", 16, "admission queue capacity (full queue answers 429)")
	executors := flag.Int("executors", 1, "studies running concurrently (each fans out on the shared workers)")
	cacheDir := flag.String("cache-dir", "", "content-addressed synthesis cache directory (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory cache entries (0 = default)")
	stateDir := flag.String("state-dir", "", "job journal directory for crash recovery (empty = in-memory jobs only)")
	retain := flag.Int("retain", 256, "terminal jobs kept queryable before eviction")
	retainAge := flag.Duration("retain-age", time.Hour, "terminal jobs older than this are evicted (0 = no age bound)")
	jobTimeout := flag.Duration("job-timeout", 0, "wall-clock budget per study (0 = unlimited)")
	raceDefault := flag.Bool("race-default", false, "run every submitted study under the successive-halving racing scheduler unless the request asked itself")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight jobs on shutdown")
	pprofAddr := flag.String("pprof", "", "loopback address for net/http/pprof, e.g. 127.0.0.1:6060 (empty = off)")
	nodeURL := flag.String("node", "", "this node's advertised URL in cluster mode, e.g. http://10.0.0.3:8080 (empty = single node)")
	peerURLs := flag.String("peers", "", "comma-separated peer URLs (cluster membership; self is implied)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per peer on the hash ring (0 = default 64)")
	lease := flag.Duration("lease", 10*time.Second, "job claim lease; a dead owner's jobs move after this expires")
	heartbeat := flag.Duration("heartbeat", time.Second, "peer health probe interval")
	metricsAggregate := flag.Bool("metrics-aggregate", false, "probe all peers at /metrics scrape time for fresh per-peer gauges")
	flag.Parse()

	*nodeURL = strings.TrimRight(strings.TrimSpace(*nodeURL), "/")
	if *nodeURL == "" && *peerURLs != "" {
		fatal(fmt.Errorf("-peers requires -node (this node's advertised URL)"))
	}

	// Profiling is served on its own loopback listener with a dedicated
	// mux: the debug surface never shares a port (or a handler tree) with
	// the public API, so exposing -addr does not expose pprof.
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listen: %w", err))
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := (&http.Server{Handler: mux}).Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "adcsynd: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "adcsynd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}

	// The cache is always on: request dedup across time is the service's
	// whole economy. -cache-dir adds the persistent tier.
	cache, err := synth.NewCache(*cacheEntries, *cacheDir)
	if err != nil {
		fatal(err)
	}
	var journal *service.Journal
	if *stateDir != "" {
		if journal, err = service.OpenJournal(*stateDir); err != nil {
			fatal(err)
		}
		defer journal.Close()
	}
	man := service.NewManager(service.Config{
		Workers:     *workers,
		QueueCap:    *queueCap,
		Executors:   *executors,
		JobTimeout:  *jobTimeout,
		DefaultRace: *raceDefault,
		Cache:       cache,
		Journal:     journal,
		Retain:      *retain,
		RetainAge:   *retainAge,
		NodeID:      *nodeURL,
	})
	if journal != nil {
		stats, err := man.Recover()
		if err != nil {
			fatal(err)
		}
		if stats.Records > 0 || stats.Dropped > 0 {
			fmt.Fprintf(os.Stderr,
				"adcsynd: journal replay: %d records (%d torn), %d jobs re-enqueued, %d unrecoverable, %d terminal restored\n",
				stats.Records, stats.Dropped, stats.Recovered, stats.Failed, stats.Restored)
		}
	}
	man.Start()
	local := service.NewServer(man)
	var handler http.Handler = local
	var node *cluster.Node
	if *nodeURL != "" {
		node, err = cluster.NewNode(cluster.Config{
			Self:             *nodeURL,
			Peers:            splitPeers(*peerURLs),
			VirtualNodes:     *vnodes,
			LeaseDuration:    *lease,
			HeartbeatEvery:   *heartbeat,
			AggregateMetrics: *metricsAggregate,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "adcsynd: "+format+"\n", args...)
			},
		}, man, cache, local)
		if err != nil {
			fatal(err)
		}
		// The cluster tier extends the cache: misses probe the key's ring
		// owner, fresh entries replicate there.
		cache.SetFill(node.CacheFill)
		cache.SetPush(node.CachePush)
		node.Start()
		handler = node
		fmt.Fprintf(os.Stderr, "adcsynd: cluster mode: %d peers, %d vnodes, lease %s\n",
			node.Ring().Len(), node.Ring().VNodes(), *lease)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "adcsynd: listening on %s (workers=%d queue=%d executors=%d)\n",
		*addr, *workers, *queueCap, *executors)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "adcsynd: draining (grace %s)\n", *drainTimeout)
	man.Drain(*drainTimeout)
	if node != nil {
		// After the drain every job is terminal: release the replicas so
		// successors do not resurrect drained work, then stop the loops.
		node.Shutdown()
	}
	// Jobs are terminal and event streams closed; active handlers finish
	// within the shutdown grace.
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "adcsynd: drained cleanly")
}

// splitPeers parses the -peers list, tolerating blanks and trailing
// slashes (URLs are ring identities; a slash would split the keyspace).
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "adcsynd:", err)
	os.Exit(1)
}
