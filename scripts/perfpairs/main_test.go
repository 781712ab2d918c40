package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1.9}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {0.9, 9.1}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{4}, 0.9); got != 4 {
		t.Errorf("quantile of one sample = %v", got)
	}
}

func TestVerdicts(t *testing.T) {
	bound := 0.25
	// Ten base runs near 10: IQR 0.35, p10 9.69, p90 10.31.
	base := []float64{10.0, 9.8, 10.2, 9.6, 10.4, 9.9, 10.1, 9.7, 10.3, 10.0}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		better string
		bound  *float64
		want   string
		wins   int
	}{
		{"faster by far more than the IQR", scale(base, 0.7), "lower", &bound, improved, 10},
		{"same", base, "lower", &bound, withinBound, 0},
		{"slower within the bound", scale(base, 1.2), "lower", &bound, withinBound, 0},
		{"slower past the bound", scale(base, 1.3), "lower", &bound, worse, 0},
		{"higher is better", scale(base, 1.3), "higher", &bound, improved, 10},
		{"lower when higher is better", scale(base, 0.7), "higher", &bound, worse, 0},
		{"no bound", scale(base, 1.3), "lower", nil, noBound, 0},
		{"no bound, improved", scale(base, 0.5), "lower", nil, improved, 10},
		// Every change run is faster, but the median gain is below the
		// base IQR: not a claimable improvement.
		{"gain inside the IQR", scale(base, 0.98), "lower", &bound, withinBound, 10},
		// The median gain exceeds the IQR, but only half the pairs win.
		{"wins on half the pairs", []float64{5, 11, 5, 11, 5, 11, 5, 11, 5, 11}, "lower", &bound, unresolved, 5},
		// 8 of 10 pairs win: short of nine tenths.
		{"wins on 8 pairs", []float64{9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 9.5, 10.5, 10.5}, "lower", &bound, withinBound, 8},
		// Unchanged median, but the change side spreads over ±40%.
		{"spread past the bound", []float64{6, 14, 10, 10, 10, 10, 10, 6, 14, 10}, "lower", &bound, unresolved, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := summarize(base, c.change, c.better, c.bound, [2]int{})
			if s.Verdict != c.want || s.Wins != c.wins {
				t.Errorf("verdict %q wins %d, want %q wins %d (%+v)", s.Verdict, s.Wins, c.want, c.wins, s)
			}
		})
	}
	// A skewed base spreads past the bound and its IQR hides the gain,
	// but every change run beats every base run: not unresolved.
	skewed := []float64{9.6, 14, 9.7, 14, 9.8, 14, 9.9, 14, 10, 10}
	if s := summarize(skewed, scale(base, 0.9), "lower", &bound, [2]int{}); s.Verdict != withinBound || s.Spread <= bound {
		t.Errorf("separated runs: verdict %q spread %v", s.Verdict, s.Spread)
	}
	if s := summarize(skewed, append(scale(base[1:], 0.95), 9.7), "lower", &bound, [2]int{}); s.Verdict != unresolved {
		t.Errorf("overlapping runs: verdict %q", s.Verdict)
	}
	// A gain does not count when the change failed more operations
	// than the base; as many failures on both sides do not withhold it.
	if s := summarize(base, scale(base, 0.7), "lower", &bound, [2]int{0, 1}); s.Verdict != withinBound {
		t.Errorf("change failed more: verdict %q", s.Verdict)
	}
	if s := summarize(base, scale(base, 0.7), "lower", &bound, [2]int{2, 2}); s.Verdict != improved {
		t.Errorf("equal failures: verdict %q", s.Verdict)
	}
	s := summarize(base, scale(base, 0.5), "lower", &bound, [2]int{})
	if s.BaseMedian != 10 || s.ChangeMedian != 5 || s.DeltaPct != -50 || math.Abs(s.BaseIQR-0.35) > 1e-9 {
		t.Errorf("statistics: %+v", s)
	}
	if math.Abs(s.BaseP10-9.69) > 1e-9 || math.Abs(s.BaseP90-10.31) > 1e-9 {
		t.Errorf("base p10/p90 = %v/%v", s.BaseP10, s.BaseP90)
	}
}
