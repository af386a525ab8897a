package main

import "testing"

func TestComparisonVerdicts(t *testing.T) {
	lower := specMetric{Better: "lower", Bound: 0.1}
	steady := samples{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		change samples
		want   string
	}{
		{"faster in every pair", samples{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{"slower beyond the bound", samples{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "worse"},
		{"same", samples{100, 100, 100, 101, 99, 100, 101, 99, 100, 100}, "unchanged"},
	} {
		if got := comparison(steady, tc.change, lower).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := samples{60, 140, 70, 130, 100, 90, 110, 65, 135, 100}
	if got := comparison(noisy, samples{95, 105, 100, 98, 102, 99, 101, 97, 103, 100}, lower).verdict; got != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
	higher := specMetric{Better: "higher", Bound: 0.1}
	if got := comparison(steady, samples{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, higher).verdict; got != "improved" {
		t.Errorf("higher-is-better rate: verdict %s, want improved", got)
	}
}

func TestLookupBreakdownBound(t *testing.T) {
	spec := benchSpec{EndToEnd: []specMetric{
		{Name: "setup_s", Better: "lower", Bound: 0.25},
		{Name: breakdownOf, Better: "lower", Bound: 0.2},
	}}
	if m := spec.lookup("setup_s"); m.Bound != 0.25 {
		t.Errorf("gated metric: bound %g, want its own 0.25", m.Bound)
	}
	if m := spec.lookup("mine_dense_ms"); m.Bound != 0.2 || m.Better != "lower" {
		t.Errorf("class row: %+v, want lower with the %s bound 0.2", m, breakdownOf)
	}
	if m := spec.lookup("capacity_ops_s"); m.Better != "higher" {
		t.Errorf("rate: better %q, want higher", m.Better)
	}
}
