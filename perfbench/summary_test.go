package main

import (
	"math"
	"testing"
)

func TestSummarizeQuartiles(t *testing.T) {
	s := Summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.P25 != 2 || s.P50 != 3 || s.P75 != 4 || s.Max != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
	// Even count: linear interpolation between the middle pair.
	if s := Summarize([]float64{1, 2, 3, 4}); s.P50 != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", s.P50)
	}
	if s := Summarize(nil); s.N != 0 || !math.IsNaN(s.P50) {
		t.Fatalf("empty Summarize = %+v, want N=0 and NaN", s)
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.50, 50, 50},
		{0.90, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0, 1, 99},
	} {
		v, beyond := NearestRank(xs, c.q)
		if v != c.want || beyond != c.beyond {
			t.Errorf("NearestRank(q=%v) = %v (%d beyond), want %v (%d beyond)", c.q, v, beyond, c.want, c.beyond)
		}
	}
	// Ties: samples equal to the percentile are not beyond it.
	if v, beyond := NearestRank([]float64{1, 2, 2, 2, 3}, 0.5); v != 2 || beyond != 1 {
		t.Errorf("NearestRank with ties = %v (%d beyond), want 2 (1 beyond)", v, beyond)
	}
	if v, beyond := NearestRank(nil, 0.9); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("NearestRank(nil) = %v, %d", v, beyond)
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{8, 1, 7, 2, 6, 3, 5, 4}, 4.5},    // mean of 3..6
		{[]float64{1, 2, 3, 4, 5, 6, 7, 1000}, 4.5}, // the outlier is cut
		{[]float64{7}, 7},
		{[]float64{2, 4}, 3},
	} {
		if got := MidMean(c.xs); got != c.want {
			t.Errorf("MidMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Two modes: the median jumps with one sample, the mid-mean moves by
	// a fraction of the gap.
	a := []float64{10, 10, 10, 10, 10, 20, 20, 20, 20}
	b := []float64{10, 10, 10, 10, 20, 20, 20, 20, 20}
	if ma, mb := Summarize(a).P50, Summarize(b).P50; mb-ma != 10 {
		t.Fatalf("medians %v, %v", ma, mb)
	}
	if d := MidMean(b) - MidMean(a); d <= 0 || d > 2.5 {
		t.Errorf("mid-mean moved by %v, want (0, 2.5]", d)
	}
	if !math.IsNaN(MidMean(nil)) {
		t.Error("MidMean(nil) is not NaN")
	}
}
