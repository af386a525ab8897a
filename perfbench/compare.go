package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode and the smoke test
// read.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runCompare compares two sets of untraced run reports, such as the parent
// and a change run as alternating pairs, following the choosing-metrics
// rule: per workload × metric it prints both sides' median and quartiles,
// the fraction of pairs the change won, and a verdict — improved (won at
// least 9 of 10 pairs and the medians differ by more than the parent's
// quartile spread), worse (median worse than the parent's by more than the
// metric's bound), unresolved (the parent's own spread exceeds the bound and
// not every change run beats every parent run) or unchanged.
func runCompare(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	baseDir := fs.String("base", "", "directory of the parent's run reports")
	changeDir := fs.String("change", "", "directory of the change's run reports")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *changeDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: --base and --change are required")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	base, err := loadReports(*baseDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	change, err := loadReports(*changeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-14s %-26s %-6s %-28s %-28s %-7s %s\n", "workload", "metric", "unit", "parent median [q1,q3]", "change median [q1,q3]", "won", "verdict")
	var workloads []string
	for w := range base {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		b, c := base[w], change[w]
		if len(c) == 0 {
			fmt.Fprintf(stdout, "%-14s (no change runs)\n", w)
			continue
		}
		for _, m := range compareMetrics(b, c) {
			sm := spec.lookup(m)
			bv, cv := values(b, m), values(c, m)
			row := comparison(bv, cv, sm)
			fmt.Fprintf(stdout, "%-14s %-26s %-6s %-28s %-28s %-7s %s\n", w, m, b[0].Metrics[m].Unit,
				fmt.Sprintf("%.6g [%.6g,%.6g]", bv.quantile(0.5), bv.quantile(0.25), bv.quantile(0.75)),
				fmt.Sprintf("%.6g [%.6g,%.6g]", cv.quantile(0.5), cv.quantile(0.25), cv.quantile(0.75)),
				fmt.Sprintf("%d/%d", row.won, row.pairs), row.verdict)
		}
	}
	return 0
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(blob, &spec)
}

// breakdownOf is the gated metric the reported-only timings break down:
// the per-class and per-request-class rows are parts of an op, so they
// take its bound.
const breakdownOf = "op_p50_ms"

// lookup returns a metric's direction and bound: from BENCHMARK.json when
// it gates the metric, otherwise lower-is-better for timings and higher for
// rates, with the bound of breakdownOf.
func (s benchSpec) lookup(name string) specMetric {
	var fallback float64
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m
		}
		if m.Name == breakdownOf {
			fallback = m.Bound
		}
	}
	m := specMetric{Name: name, Better: "lower", Bound: fallback}
	if strings.HasSuffix(name, "_ops_s") {
		m.Better = "higher"
	}
	return m
}

// loadReports reads every untraced run report under dir, by workload, in
// file-name order (seed order for the default names).
func loadReports(dir string) (map[string][]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]report{}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Provenance.Workload] = append(out[r.Provenance.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no run reports (*-trace0.json) in %s", dir)
	}
	return out, nil
}

// compareMetrics lists the timing and rate metrics both sides report.
func compareMetrics(b, c []report) []string {
	seen := map[string]bool{}
	for _, r := range b {
		for name, d := range r.Metrics {
			if d.Unit == "ms" || d.Unit == "s" || d.Unit == "ops/s" {
				seen[name] = true
			}
		}
	}
	var names []string
	for n := range seen {
		if _, ok := c[0].Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func values(rs []report, name string) samples {
	var s samples
	for _, r := range rs {
		if d, ok := r.Metrics[name]; ok {
			s = append(s, d.Value)
		}
	}
	return s
}

type verdictRow struct {
	won, pairs int
	verdict    string
}

// comparison applies the verdict rule to one metric's two sample sets;
// pairs are formed by position.
func comparison(b, c samples, m specMetric) verdictRow {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	row := verdictRow{pairs: min(len(b), len(c))}
	for i := 0; i < row.pairs; i++ {
		if better(c[i], b[i]) {
			row.won++
		}
	}
	bm, cm := b.quantile(0.5), c.quantile(0.5)
	spread := b.quantile(0.75) - b.quantile(0.25)
	allBetter := true
	for _, x := range c {
		for _, y := range b {
			allBetter = allBetter && better(x, y)
		}
	}
	worseBy := (cm - bm) / bm
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case row.pairs > 0 && float64(row.won) >= 0.9*float64(row.pairs) && better(cm, bm) && abs(cm-bm) > spread:
		row.verdict = "improved"
	case bm != 0 && spread/bm > m.Bound && !allBetter:
		row.verdict = "unresolved"
	case worseBy > m.Bound:
		row.verdict = "worse"
	default:
		row.verdict = "unchanged"
	}
	return row
}
