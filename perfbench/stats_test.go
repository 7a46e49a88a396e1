package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 2, 9}, 2},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample should be NaN")
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 10}, {50, 60}, {90, 100}, {100, 110}, {95, 105}, {25, 35},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Two samples: p90 interpolates 90% of the way to the larger.
	if got := percentile([]float64{1, 2}, 90); math.Abs(got-1.9) > 1e-9 {
		t.Errorf("p90 of {1,2} = %v, want 1.9", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}
