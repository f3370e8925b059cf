package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pipesyn/internal/service"
	"pipesyn/internal/synth"
)

// daemon is one in-process adcsynd: the real Manager behind httptest,
// wired as cmd/adcsynd wires it with its flag defaults.
type daemon struct {
	man     *service.Manager
	cache   *synth.Cache
	journal *service.Journal
	ts      *httptest.Server
	dir     string
}

// startDaemon builds and starts a daemon for w and returns its set-up
// time: from cache, journal and Manager construction to the first 200
// from /readyz. A journaled workload gets a fresh state directory under
// workdir.
func startDaemon(w *workload, workdir string, hc *http.Client) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("work dir: %w", err)
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, 0, fmt.Errorf("work dir: %w", err)
	}
	d := &daemon{dir: dir}

	t0 := time.Now()
	if d.cache, err = synth.NewCache(0, ""); err != nil {
		d.stop()
		return nil, 0, err
	}
	if w.journal {
		if d.journal, err = service.OpenJournal(filepath.Join(dir, "state")); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	d.man = service.NewManager(service.Config{
		QueueCap:  16, // adcsynd's -queue default
		Executors: w.executors,
		Cache:     d.cache,
		Journal:   d.journal,
		Retain:    256,
		RetainAge: time.Hour,
		Lease:     10 * time.Second,
	})
	if d.journal != nil {
		if _, err := d.man.Recover(); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("journal replay: %w", err)
		}
	}
	d.man.Start()
	d.ts = httptest.NewServer(service.NewServer(d.man))
	for {
		resp, err := hc.Get(d.ts.URL + "/readyz")
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("readyz: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("readyz: still %d after 10s", resp.StatusCode)
		}
	}
	return d, time.Since(t0), nil
}

// stop drains the manager, closes the server and journal, and removes
// the daemon's directories.
func (d *daemon) stop() {
	if d.man != nil {
		d.man.Drain(30 * time.Second)
	}
	if d.ts != nil {
		d.ts.Close()
	}
	if d.journal != nil {
		_ = d.journal.Close()
	}
	_ = os.RemoveAll(d.dir)
}

// newHTTPClient is the load generator's client: at most two connections
// to the daemon, kept alive between requests.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		},
	}
}

// submit POSTs a study and returns the HTTP status with the decoded
// reply (zero unless the status is 200 or 202).
func (d *daemon) submit(hc *http.Client, req service.StudyRequest) (service.SubmitResponse, int, error) {
	var out service.SubmitResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	resp, err := hc.Post(d.ts.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&out)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return out, resp.StatusCode, err
}

// status GETs a job's status and result.
func (d *daemon) status(hc *http.Client, id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := hc.Get(d.ts.URL + "/v1/studies/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// evalHistogram reads the count and sum of the daemon's evaluation
// histogram from /metrics.
func (d *daemon) evalHistogram(hc *http.Client) (count, sum float64, err error) {
	resp, err := hc.Get(d.ts.URL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "adcsynd_eval_duration_seconds_count":
			count, err = strconv.ParseFloat(val, 64)
		case "adcsynd_eval_duration_seconds_sum":
			sum, err = strconv.ParseFloat(val, 64)
		default:
			continue
		}
		if err != nil {
			return 0, 0, fmt.Errorf("metrics: %s: %w", name, err)
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("metrics: %w", err)
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("metrics: evaluation histogram missing")
	}
	return count, sum, nil
}
