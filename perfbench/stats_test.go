package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(1-got/100) < minBeyond-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", tc.n, got, minBeyond)
		}
	}
}

func TestTailFallsBackToMax(t *testing.T) {
	v, p := tail([]float64{3, 1, 2})
	if v != 3 || p != 100 {
		t.Fatalf("tail of 3 samples = %g at p%g; want the max at p100", v, p)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p = tail(xs)
	if p != 90 || math.Abs(v-90.1) > 1e-9 {
		t.Fatalf("tail of 1..100 = %g at p%g; want 90.1 at p90", v, p)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
