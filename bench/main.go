// Command pipebench is the served-path benchmark for adcsynd. It boots
// the real service.Manager behind httptest, wired as cmd/adcsynd wires
// it, drives it only with StudyRequest bodies generated from a seed, and
// reports end-to-end metrics (tracing off) or per-layer metrics (a
// separate traced run), each by name and with its unit. It exits
// non-zero when a correctness check fails.
//
// Usage, from this directory:
//
//	go run . -workload <name|all> -seed N [-seconds S] [-trace 0|1]
//	         [-trace-out FILE] [-runs N] [-short]
//
// or from the repository root, building into .bench_build/ first:
//
//	bash bench/run.sh --workload <name> --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -workload all, or with
// -runs N > 1, every run happens in a fresh child process and the
// summary reports each metric's median and quartiles across the runs,
// seeds N, N+1, …. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pipesyn/internal/service"
	"pipesyn/internal/sim"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	runs     int
	short    bool
	workdir  string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "traced runs: write the span trees to this JSON file")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, each in a fresh process with seeds seed, seed+1, …")
	fs.BoolVar(&o.short, "short", false, "tiny smoke scale: equation-mode studies, small prefixes, a small yield job")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for the daemons' journals and disk caches")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload != "all" && workloadByName(o.workload) == nil:
		return o, fmt.Errorf("unknown -workload %q (want %s or all)", o.workload, strings.Join(workloadNames(), ", "))
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.runs < 1:
		return o, fmt.Errorf("-runs %d: want at least 1", o.runs)
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 2
	}
	if o.workload == "all" || o.runs > 1 {
		return orchestrate(o, stdout, stderr)
	}
	res, err := runWorkload(context.Background(), workloadByName(o.workload), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many daemons a run sets up; setup_s is their median
// and the last one serves the load.
const setupReps = 25

// warmRepeats is how many cache-served repeats every run sends after its
// timed window, cycling over its last warmSources fresh studies.
const (
	warmRepeats = 64
	warmSources = 16
)

// runWorkload runs one workload in this process and prints its metrics
// by name and unit, one per line, before the caller prints the result.
func runWorkload(ctx context.Context, w *workload, o options, stdout io.Writer) (result, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	dur := time.Duration(o.seconds) * time.Second
	prefix, reps := w.prefix, setupReps
	if o.short {
		prefix, reps = min(prefix, 40), 3
	}

	var setups []time.Duration
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		var dt time.Duration
		var err error
		if d, dt, err = startDaemon(w, o.workdir, hc); err != nil {
			return result{}, err
		}
		setups = append(setups, dt)
	}
	drive := func(d *daemon, dur time.Duration, tr *tracer) *phase {
		lg := &loadGen{d: d, hc: hc, tr: tr}
		ph := &phase{recs: lg.closed(w, o.seed, dur, prefix, o.short)}
		ph.warm = lg.warmPass(ph.recs, warmRepeats)
		return ph
	}

	fmt.Fprintf(stdout, "pipebench: workload %s seed %d seconds %d trace %d\n", w.name, o.seed, o.seconds, o.trace)
	var phases []*phase
	var values map[string]float64
	defs := endToEnd
	if o.trace == 0 {
		rss := startRSSSampler()
		ph := drive(d, dur, nil)
		rssMB, err := rss.finish()
		d.stop()
		if err != nil {
			return result{}, err
		}
		phases = append(phases, ph)
		values = endToEndMetrics(ph, setups, rssMB)
	} else {
		// An untraced half and a traced half over the same request
		// sequence, each on a fresh daemon; their median latencies give
		// the tracing overhead.
		plain := drive(d, dur/2, nil)
		d.stop()
		traced, in, err := tracedPhase(ctx, w, o, dur/2, hc, drive)
		if err != nil {
			return result{}, err
		}
		phases = append(phases, plain, traced)
		in.untracedP50 = nearestRank(latencies(plain.recs), 0.5)
		values = layerMetrics(in)
		values["service.rss_peak_mb"] = peakRSSMB()
		defs = perLayer
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range phases {
		for _, r := range ph.all() {
			res.Attempted++
			if !r.ok() {
				res.Failed++
			}
		}
		for _, p := range checkPhase(ph) {
			res.Correct = false
			fmt.Fprintln(stdout, "check failed:", p)
		}
	}
	lat := latencies(phases[0].recs)
	_, q := tail(lat)
	fmt.Fprintf(stdout, "studies %d completed of %d attempted; tail at p%.4g of N=%d\n", len(lat), len(phases[0].recs), 100*q, len(lat))
	for _, c := range classLatencies(phases[0]) {
		fmt.Fprintf(stdout, "class %-6s n %4d p50 %.6g s max %.6g s\n", c.class, c.n, c.p50, c.max)
	}
	dg := digestRecords(phases[0], prefix)
	fmt.Fprintf(stdout, "result_digest %s over %d studies\n", digest(dg), len(dg))
	for _, def := range defs {
		v := values[def.name]
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", def.name, v, def.unit)
	}
	return res, nil
}

// tracedPhase runs the traced half on a fresh daemon and gathers the
// counter deltas and replays the per-layer metrics need.
func tracedPhase(ctx context.Context, w *workload, o options, dur time.Duration, hc *http.Client,
	drive func(*daemon, time.Duration, *tracer) *phase) (*phase, layerInputs, error) {
	var in layerInputs
	d, _, err := startDaemon(w, o.workdir, hc)
	if err != nil {
		return nil, in, err
	}
	defer d.stop()
	c0, s0, err := d.evalHistogram(hc)
	if err != nil {
		return nil, in, err
	}
	k0 := sim.ReadKernelStats()
	tr := startTracer(d.man)
	start := time.Now()
	ph := drive(d, dur, tr)
	in.wall = time.Since(start)
	tr.stop()
	c1, s1, err := d.evalHistogram(hc)
	if err != nil {
		return nil, in, err
	}
	in.ph, in.events, in.depthMax = ph, tr.events, tr.depthMax
	in.workers = d.man.Snapshot().PoolWorkers
	in.evalCount, in.evalSum = c1-c0, s1-s0
	in.kernel = kernelDelta(k0, sim.ReadKernelStats())
	in.cache = d.cache.Stats()

	if first := firstHybrid(ph.recs); first != nil {
		rp, err := replayStudy(ctx, first.Req, d.cache)
		if err != nil {
			return nil, in, err
		}
		in.replay = &rp
	}
	if in.laNS, err = laFactorSolveNS(); err != nil {
		return nil, in, err
	}
	if w.name == "hybrid_race" {
		var reqs []service.StudyRequest
		for _, r := range ph.recs {
			if r.ok() && len(reqs) < 2 {
				reqs = append(reqs, r.Req)
				in.raceEvals += r.TotalEvals
			}
		}
		if in.coldEvals, err = coldEvals(ctx, reqs); err != nil {
			return nil, in, err
		}
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, start, ph.recs, jobTraces(ph.recs, in.events)); err != nil {
			return nil, in, fmt.Errorf("trace-out: %w", err)
		}
	}
	return ph, in, nil
}

// firstHybrid is the first completed fresh study that ran the hybrid
// evaluator.
func firstHybrid(recs []*record) *record {
	for _, r := range recs {
		if r.ok() && (r.Class == classStudy || r.Class == classHyb) && (r.Req.Mode == "" || r.Req.Mode == "hybrid") {
			return r
		}
	}
	return nil
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssSampler samples this process's resident set size every 100 ms until
// finished. The median of the samples repeats across runs within 1–6 %,
// where the peak moves by 15–20 % with the timing of transient heap
// growth against garbage collection.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
	err        error
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.mb = append(s.mb, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median sample.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.mb), s.err
}

// residentMB reads this process's current resident set size.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set size: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("resident set size: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set size: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// orchestrate runs every requested (workload, seed) in a fresh child
// process, so set-up time and memory are per workload, and prints each
// metric's median and quartiles across the runs.
func orchestrate(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < o.runs; i++ {
			seed := o.seed + int64(i)
			args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace), "-workdir", o.workdir, "-short=" + fmt.Sprint(o.short)}
			if o.traceOut != "" {
				args = append(args, "-trace-out", fmt.Sprintf("%s.%s.%d.json", strings.TrimSuffix(o.traceOut, ".json"), name, seed))
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil {
				fmt.Fprintf(stderr, "pipebench: %s seed %d: %v\n", name, seed, errors.Join(err, jerr))
				status = 1
				continue
			}
			if o.runs == 1 || !res.Correct {
				for _, l := range lines[:len(lines)-1] {
					fmt.Fprintln(stdout, l)
				}
			} else {
				fmt.Fprintf(stdout, "%s seed %d: correct %v attempted %d failed %d %s\n",
					name, seed, res.Correct, res.Attempted, res.Failed, digestLine(lines))
			}
			if !res.Correct {
				status = 1
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if o.runs > 1 && len(keys) > 0 {
			fmt.Fprintf(stdout, "%s over %d runs: %-28s %12s %12s %12s %8s\n", name, len(values[keys[0]]), "metric", "median", "q1", "q3", "iqr/med")
		}
		for _, k := range keys {
			q1, q2, q3 := quartiles(values[k])
			if o.runs > 1 {
				fmt.Fprintf(stdout, "%s  %-40s %12.6g %12.6g %12.6g %8.4f %s\n", name, k, q2, q1, q3, ratio(q3-q1, q2), units[k])
			}
			total.Metrics[name+"."+k] = metric{Value: q2, Unit: units[k]}
		}
	}
	blob, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return status
}

func digestLine(lines []string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, "result_digest ") {
			return l
		}
	}
	return ""
}
