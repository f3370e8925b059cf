package service_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pipesyn/internal/service"
)

// decode runs body through the daemon's submission guards as a JSON POST.
func decode(body []byte) (service.StudyRequest, bool) {
	r := httptest.NewRequest(http.MethodPost, "/v1/studies", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return service.DecodeStudyRequest(httptest.NewRecorder(), r)
}

// FuzzStudyRequest feeds arbitrary bodies through the submit path's
// decode and validation. Whatever StudyRequest.Options accepts must stay
// within every bound that sizes work (a request decides how much memory
// synthesis allocates up front), and its job key must survive a marshal
// and decode round trip, since the journal stores the request and
// recovery recomputes the key from it.
func FuzzStudyRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := decode(body)
		if !ok {
			return
		}
		opts, err := req.Options()
		if err != nil {
			return
		}
		bits := float64(req.Bits)
		for _, b := range []struct {
			name      string
			v, lo, hi float64
		}{
			{"bits", bits, 4, 20},
			{"evals", float64(req.Evals), 0, 100000},
			{"pattern", float64(req.Pattern), 0, 100000},
			{"restarts", float64(req.Restarts), 0, 64},
			{"raceRungs", float64(req.RaceRungs), 0, 6},
			{"raceEta", float64(req.RaceEta), 0, 16},
			{"draws", float64(req.Draws), 0, 100000},
			{"minEnob", req.MinENOB, 0, bits},
			{"fs", req.SampleRate, 0, math.Inf(1)},
			{"vref", req.VRef, 0, math.Inf(1)},
		} {
			if !(b.v >= b.lo && b.v <= b.hi) {
				t.Fatalf("accepted %s = %g outside [%g, %g]: %s", b.name, b.v, b.lo, b.hi, body)
			}
		}
		key := req.JobKey(opts)
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, ok := decode(blob)
		if !ok {
			t.Fatalf("re-marshaled request %s does not decode", blob)
		}
		opts2, err := again.Options()
		if err != nil {
			t.Fatalf("re-marshaled request %s fails validation: %v", blob, err)
		}
		if got := again.JobKey(opts2); got != key {
			t.Fatalf("job key moved across a round trip: %s -> %s (%s)", key, got, blob)
		}
	})
}
