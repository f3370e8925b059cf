package main

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/service"
)

// TestParseFlags checks the flag → study mapping: every study flag lands
// in its service.StudyRequest field, the CLI keys a study exactly as
// adcsynd keys the equivalent POST body, and a request the API rejects is
// rejected on the command line too.
func TestParseFlags(t *testing.T) {
	// The CLI defaults, spelled out as a POST body.
	const defaults = `"bits":13,"fs":40e6,"vref":1,"mode":"hybrid","evals":180,"pattern":90,"restarts":1,"seed":7`
	for _, tc := range []struct {
		name string
		args []string
		body string // the equivalent POST /v1/studies body
		req  *service.StudyRequest
		inv  *invocation // execution flags, req excluded
		err  string      // substring of the expected rejection
	}{
		{
			name: "defaults",
			body: `{` + defaults + `}`,
			req: &service.StudyRequest{
				Bits: 13, SampleRate: 40e6, VRef: 1, Mode: "hybrid",
				Evals: 180, Pattern: 90, Restarts: 1, Seed: 7,
			},
			inv: &invocation{},
		},
		{
			name: "every study flag",
			args: []string{
				"-bits", "11", "-fs", "25e6", "-vref", "0.8", "-mode", "simulation",
				"-evals", "48", "-pattern", "24", "-restarts", "2", "-seed", "99",
				"-retarget", "-sha", "-race", "-race-rungs", "3", "-race-eta", "4", "-surrogate",
			},
			body: `{"bits":11,"fs":25e6,"vref":0.8,"mode":"simulation","evals":48,"pattern":24,
				"restarts":2,"seed":99,"retarget":true,"sha":true,"race":true,"raceRungs":3,"raceEta":4,"surrogate":true}`,
			req: &service.StudyRequest{
				Bits: 11, SampleRate: 25e6, VRef: 0.8, Mode: "simulation",
				Evals: 48, Pattern: 24, Restarts: 2, Seed: 99,
				Retarget: true, SHA: true, Race: true, RaceRungs: 3, RaceEta: 4, Surrogate: true,
			},
			inv: &invocation{},
		},
		{
			name: "yield lane",
			args: []string{"-mode", "yield", "-bits", "8", "-draws", "200", "-min-enob", "6.5"},
			body: `{` + defaults + `,"bits":8,"mode":"yield","draws":200,"minEnob":6.5}`,
			req: &service.StudyRequest{
				Bits: 8, SampleRate: 40e6, VRef: 1, Mode: "yield",
				Evals: 180, Pattern: 90, Restarts: 1, Seed: 7, Draws: 200, MinENOB: 6.5,
			},
			inv: &invocation{},
		},
		{
			name: "execution flags stay out of the study",
			args: []string{
				"-mode", "equation", "-workers", "3", "-cache-dir", "/tmp/c", "-timeout", "90s",
				"-verify", "-json", "-cpuprofile", "cpu.out", "-memprofile", "mem.out",
			},
			body: `{` + defaults + `,"mode":"equation"}`,
			inv: &invocation{
				workers: 3, cacheDir: "/tmp/c", timeout: 90 * time.Second,
				verify: true, jsonOut: true, cpuProfile: "cpu.out", memProfile: "mem.out",
			},
		},
		{
			name: "race-rungs without race",
			args: []string{"-race-rungs", "3"},
			body: `{` + defaults + `,"raceRungs":3}`,
			err:  "raceRungs/raceEta require race",
		},
		{
			name: "draws outside the yield lane",
			args: []string{"-draws", "500"},
			body: `{` + defaults + `,"draws":500}`,
			err:  "draws/minEnob require mode",
		},
		{
			name: "unknown mode",
			args: []string{"-mode", "spectral"},
			body: `{` + defaults + `,"mode":"spectral"}`,
			err:  "unknown mode",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inv, opts, err := parseFlags(tc.args)

			httpReq := httptest.NewRequest("POST", "/v1/studies", strings.NewReader(tc.body))
			httpReq.Header.Set("Content-Type", "application/json")
			post, ok := service.DecodeStudyRequest(httptest.NewRecorder(), httpReq)
			if !ok {
				t.Fatalf("daemon rejected the body %s", tc.body)
			}
			postOpts, postErr := post.Options()

			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("CLI error %v, want %q", err, tc.err)
				}
				if postErr == nil || postErr.Error() != err.Error() {
					t.Fatalf("API error %v, CLI error %v: want the same rejection", postErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if postErr != nil {
				t.Fatalf("API rejects the equivalent body: %v", postErr)
			}
			if tc.req != nil && !reflect.DeepEqual(inv.req, *tc.req) {
				t.Errorf("request %+v, want %+v", inv.req, *tc.req)
			}
			if tc.inv != nil {
				got := inv
				got.req = service.StudyRequest{}
				if !reflect.DeepEqual(got, *tc.inv) {
					t.Errorf("execution flags %+v, want %+v", got, *tc.inv)
				}
			}
			if got, want := core.StudyKey(opts), core.StudyKey(postOpts); got != want {
				t.Errorf("CLI study key %s, POST body key %s", got, want)
			}
			if got, want := inv.req.JobKey(opts), post.JobKey(postOpts); got != want {
				t.Errorf("CLI job key %s, POST body job key %s", got, want)
			}
		})
	}
}
