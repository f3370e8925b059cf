package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestShortSmoke runs every workload at tiny scale in equation mode,
// untraced and traced, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json lists, each with its unit.
func TestShortSmoke(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads; the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if workloadByName(sw.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is not in the program", sw.Name)
		}
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			want := map[string]string{}
			if trace == 0 {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1",
					"-trace", fmt.Sprint(trace), "-short", "-workdir", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported; BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				printed := map[string]string{} // name → unit, from the "name value unit" lines
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 {
						printed[f[0]] = f[2]
					}
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v (present %v); want unit %s", name, m, ok, unit)
					}
					if printed[name] != unit {
						t.Errorf("human-readable output lacks the line %q with unit %s", name, unit)
					}
				}
			})
		}
	}
}
