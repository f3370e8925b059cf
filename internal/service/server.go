package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"strings"
)

// Server is the daemon's HTTP surface over a Manager:
//
//	POST   /v1/studies            submit a study (202; 200 when deduped;
//	                              413 over MaxStudyBodyBytes; 415 on a
//	                              non-JSON Content-Type;
//	                              429 + Retry-After when the queue is full;
//	                              503 while draining)
//	POST   /v1/jobs               alias of the submit above
//	GET    /v1/studies            list jobs, newest first; ?state= filters
//	GET    /v1/jobs               alias of the listing above
//	GET    /v1/studies/{id}       job status (+ result when done)
//	GET    /v1/studies/{id}/events per-stage progress as NDJSON, streamed
//	                              until the job is terminal
//	DELETE /v1/studies/{id}       cancel a queued or running job
//	GET    /v1/jobs/{id}[/events] aliases of the job routes above
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness: 200 while the process serves
//	GET    /readyz                readiness: 200 once Start has run (journal
//	                              replayed) and no drain is in progress
type Server struct {
	man *Manager
	mux *http.ServeMux
}

// NewServer wires the routes over a started Manager.
func NewServer(man *Manager) *Server {
	s := &Server{man: man, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/studies", s.submit)
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/studies", s.list)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	for _, base := range []string{"/v1/studies", "/v1/jobs"} {
		s.mux.HandleFunc("GET "+base+"/{id}", s.status)
		s.mux.HandleFunc("GET "+base+"/{id}/events", s.events)
		s.mux.HandleFunc("DELETE "+base+"/{id}", s.cancel)
	}
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SubmitResponse is the POST /v1/studies reply.
type SubmitResponse struct {
	ID      string `json:"id"`
	Key     string `json:"key"`
	State   State  `json:"state"`
	Deduped bool   `json:"deduped"`
	// Events and Status are the URLs to follow the job with.
	Status string `json:"status"`
	Events string `json:"events"`
}

// MaxStudyBodyBytes bounds a study submission body. A valid request is a
// couple hundred bytes of knobs; a megabyte is already three orders of
// magnitude of slack, and the limit is what keeps one malicious or
// buggy client (or a proxying peer) from ballooning the daemon's memory.
const MaxStudyBodyBytes = 1 << 20

// DecodeStudyRequest enforces the submission guards — JSON Content-Type
// (415 otherwise) and the MaxStudyBodyBytes body cap (413) — then
// decodes the request. On failure the response has been written and ok
// is false. The cluster routing layer shares these guards, so a body is
// validated once at the entry node before it travels peer-to-peer.
func DecodeStudyRequest(w http.ResponseWriter, r *http.Request) (req StudyRequest, ok bool) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && !strings.HasSuffix(mt, "+json")) {
			httpError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("content type %q: want application/json", ct))
			return req, false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxStudyBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", MaxStudyBodyBytes))
			return req, false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return req, false
	}
	return req, true
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeStudyRequest(w, r)
	if !ok {
		return
	}
	s.WriteSubmit(w, req)
}

// WriteSubmit admits the (already decoded) request and writes the
// submit response — the shared tail of the local submit handler and the
// cluster router's local-execution path. It returns the admitted job
// and whether it is fresh (false on dedup or error).
func (s *Server) WriteSubmit(w http.ResponseWriter, req StudyRequest) (*Job, bool) {
	job, deduped, err := s.man.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not failure: the client should retry once the
		// queue has likely drained a slot. The manager estimates that
		// from the observed completion rate (clamped to [1, 60] s).
		w.Header().Set("Retry-After", strconv.Itoa(s.man.RetryAfter()))
		httpError(w, http.StatusTooManyRequests, err)
		return nil, false
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
		return nil, false
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return nil, false
	}
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	loc := "/v1/studies/" + job.ID
	w.Header().Set("Location", loc)
	writeJSON(w, code, SubmitResponse{
		ID: job.ID, Key: job.Key, State: job.State(), Deduped: deduped,
		Status: loc, Events: loc + "/events",
	})
	return job, !deduped
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	filter := State(r.URL.Query().Get("state"))
	switch filter {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q", filter))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{s.man.Jobs(filter)})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	job, ok := s.man.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// events streams the job's progress as NDJSON: every recorded event is
// replayed first, then live events follow until the job goes terminal or
// the client disconnects. Each line is one Event; Seq makes gaps
// detectable on the consumer side.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	job, ok := s.man.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	replay, live, unsubscribe := job.Subscribe()
	defer unsubscribe()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return // job terminal, channel drained
			}
			if !emit(ev) {
				return
			}
		}
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.man.Cancel(id); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	job, _ := s.man.Get(id)
	writeJSON(w, http.StatusAccepted, struct {
		ID    string `json:"id"`
		State State  `json:"state"`
	}{id, job.State()})
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.man.Metrics().WriteTo(w, s.man.Snapshot())
}

// healthz is liveness: the process is up and serving HTTP. It stays 200
// through a drain — a draining daemon is alive, just not ready — so
// orchestrators keep it running while in-flight jobs finish.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// readyz is readiness: Start has run (with a journal, replay precedes
// Start) and no drain is in progress. Load balancers and cluster
// heartbeats route on this.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if !s.man.Ready() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
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
