package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.999); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// A tail percentile is quoted only with ten samples beyond it.
func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
		{19, 0.5, false}, {20, 0.5, true},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestTailFallsBackToHighestSupportedPercentile(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n           int
		asked, used float64
	}{
		{20000, 0.999, 0.999},
		{5000, 0.999, 0.99}, // 5 samples beyond p99.9: quote p99
		{500, 0.999, 0.9},
		{50, 0.99, 0.5},
		{5, 0.99, 0.5}, // never below the median
	} {
		v, used := tail(sample(c.n), c.asked)
		if used != c.used {
			t.Errorf("tail(n=%d, p%v) used p%v, want p%v", c.n, c.asked*100, used*100, c.used*100)
		}
		if want := percentile(sample(c.n), c.used); v != want {
			t.Errorf("tail(n=%d, p%v) = %v, want %v", c.n, c.asked*100, v, want)
		}
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{1, 2, 3, 10}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}

// The reference values are statistics.quantiles(xs, n=4) from Python 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 9.5},
		{[]float64{4, 8}, 3, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
