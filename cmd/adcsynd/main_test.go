package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pipesyn/internal/cluster"
	"pipesyn/internal/service"
)

// TestParseFlags checks the flag → configuration mapping: each flag's
// default, one non-default value of each landing in its service.Config,
// cluster.Config or process field, the -peers list's trimming, and the
// rejection of -peers without -node.
func TestParseFlags(t *testing.T) {
	defaults := options{
		addr:         ":8080",
		drainTimeout: 30 * time.Second,
		service:      service.Config{QueueCap: 16, Executors: 1, Retain: 256, RetainAge: time.Hour},
		cluster:      cluster.Config{LeaseDuration: 10 * time.Second, HeartbeatEvery: time.Second},
	}
	for _, tc := range []struct {
		name string
		args []string
		want func(o *options)
		err  string // substring of the expected rejection
	}{
		{name: "defaults", want: func(*options) {}},
		{
			name: "process flags",
			args: []string{
				"-addr", "127.0.0.1:9000", "-cache-dir", "/var/cache/adcsyn", "-cache-entries", "64",
				"-state-dir", "/var/lib/adcsyn", "-drain-timeout", "5s", "-pprof", "127.0.0.1:6060",
			},
			want: func(o *options) {
				o.addr, o.cacheDir, o.cacheEntries = "127.0.0.1:9000", "/var/cache/adcsyn", 64
				o.stateDir, o.drainTimeout, o.pprofAddr = "/var/lib/adcsyn", 5*time.Second, "127.0.0.1:6060"
			},
		},
		{
			name: "service flags",
			args: []string{
				"-workers", "3", "-queue", "4", "-executors", "2", "-retain", "10",
				"-retain-age", "2m", "-job-timeout", "90s", "-race-default",
			},
			want: func(o *options) {
				o.service = service.Config{
					Workers: 3, QueueCap: 4, Executors: 2, Retain: 10,
					RetainAge: 2 * time.Minute, JobTimeout: 90 * time.Second, DefaultRace: true,
				}
			},
		},
		{
			name: "cluster flags",
			args: []string{
				"-node", " http://10.0.0.3:8080/ ", "-peers", " http://10.0.0.3:8080/, ,http://10.0.0.4:8080//",
				"-vnodes", "16", "-lease", "2s", "-heartbeat", "200ms", "-metrics-aggregate",
			},
			want: func(o *options) {
				o.service.NodeID = "http://10.0.0.3:8080"
				o.cluster = cluster.Config{
					Self: "http://10.0.0.3:8080", Peers: []string{"http://10.0.0.3:8080", "http://10.0.0.4:8080"},
					VirtualNodes: 16, LeaseDuration: 2 * time.Second, HeartbeatEvery: 200 * time.Millisecond,
					AggregateMetrics: true,
				}
			},
		},
		{name: "peers without node", args: []string{"-peers", "http://10.0.0.4:8080"}, err: "-peers requires -node"},
		{name: "blank node", args: []string{"-node", " / ", "-peers", "http://10.0.0.4:8080"}, err: "-peers requires -node"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFlags(tc.args)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := defaults
			tc.want(&want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parseFlags(%q) =\n%+v\nwant\n%+v", tc.args, got, want)
			}
		})
	}
}
