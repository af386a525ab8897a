package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs every workload for one second, untraced and traced, and
// checks that each run prints every metric BENCHMARK.json names, with its
// unit, and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: name, seed: 7, seconds: 1, trace: trace, outDir: t.TempDir(), setupReps: 1}
				if code := execute(cfg, &out); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int64                  `json:"attempted"`
					Failed    int64                  `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if !tableHasZero(out.String(), "fail_ratio") {
					t.Errorf("fail_ratio is not printed as 0:\n%s", out.String())
				}
			})
		}
	}
}

// tableHasZero reports whether the metric table prints name with value 0.
func tableHasZero(out, name string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name {
			return f[1] == "0"
		}
	}
	return false
}
