package main

import "testing"

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		name string
		xs   []float64
		want summary
	}{
		{"empty", nil, summary{}},
		{"one sample is its own quartiles", []float64{3}, summary{N: 1, Min: 3, Q1: 3, Median: 3, Q3: 3, Max: 3}},
		{"two samples interpolate", []float64{4, 2}, summary{N: 2, Min: 2, Q1: 2.5, Median: 3, Q3: 3.5, Max: 4}},
		{"odd count, unsorted input", []float64{5, 1, 4, 2, 3}, summary{N: 5, Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}},
		{"even count", []float64{1, 2, 3, 4}, summary{N: 4, Min: 1, Q1: 1.75, Median: 2.5, Q3: 3.25, Max: 4}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("%s: summarize(%v) = %+v, want %+v", c.name, c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 {
		t.Error("summarize reordered its input")
	}
	if got := summarize([]float64{1, 2, 3, 4}).IQR(); got != 1.5 {
		t.Errorf("IQR = %g, want 1.5", got)
	}
}

func TestCompare(t *testing.T) {
	for _, c := range []struct {
		name        string
		base, other []float64
		resolved    bool
		text        string
	}{
		{
			// The recorded "trace overhead −21 %": the traced median is a
			// fifth lower, but the quartile ranges overlap, so it is noise.
			"minus 21 percent inside the spread",
			[]float64{1.00, 1.20, 1.40, 1.10, 1.30}, []float64{0.95, 0.75, 1.15, 1.05, 0.85},
			false, "unresolved",
		},
		{
			"clear of both spreads",
			[]float64{1.00, 1.01, 1.02, 1.01}, []float64{1.10, 1.11, 1.12, 1.11},
			true, "+9.9 %",
		},
		{
			"a faster side resolves with its sign",
			[]float64{2.00, 2.02, 2.04, 2.02}, []float64{1.50, 1.51, 1.52, 1.51},
			true, "-25.2 %",
		},
		{
			// The medians differ by more than the base's spread alone, yet
			// the other side is wide enough for the ranges to overlap.
			"beyond the base spread but within the other's",
			[]float64{1.00, 1.01, 1.02, 1.01}, []float64{0.60, 1.20, 1.80, 1.20},
			false, "unresolved",
		},
		// Too few samples to have a spread: -reps 1, or one alternation
		// filling -seconds on a soc workload.
		{"single samples that differ", []float64{1}, []float64{1.5}, false, "unresolved"},
		{"three samples a side", []float64{1.00, 1.01, 1.02}, []float64{1.10, 1.11, 1.12}, false, "unresolved"},
		{"one side short", []float64{1.00, 1.01, 1.02, 1.01}, []float64{1.5}, false, "unresolved"},
		{"identical samples", []float64{1, 1, 1, 1}, []float64{1, 1, 1, 1}, false, "unresolved"},
		{"no base", nil, []float64{1, 1, 1, 1}, false, "unresolved"},
		{"zero base", []float64{0, 0, 0, 0}, []float64{1, 1, 1, 1}, false, "unresolved"},
	} {
		eff := compare(summarize(c.base), summarize(c.other))
		if !eff.Resolved && eff.Pct != 0 {
			t.Errorf("%s: unresolved effect carries the number %g", c.name, eff.Pct)
		}
		if eff.Resolved != c.resolved || eff.String() != c.text {
			t.Errorf("%s: got %q (resolved=%t, pct=%g), want %q (resolved=%t)", c.name, eff.String(), eff.Resolved, eff.Pct, c.text, c.resolved)
		}
	}
}
