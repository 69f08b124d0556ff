package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
		ok  bool
	}{
		{12, 0, false},   // a median and nothing more
		{39, 0, false},   // p75 of 39 leaves 9 above it
		{40, 75, true},   // rank 30, ten above
		{100, 90, true},  // p95 would leave five
		{200, 95, true},  // rank 190, ten above
		{1000, 99, true}, // rank 990, ten above
		{9999, 99, true}, // p99.9 would leave nine
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		xs := seq(tc.n)
		pct, v, ok := tail(xs)
		if ok != tc.ok || pct != tc.pct {
			t.Errorf("tail(n=%d) = p%v ok=%v, want p%v ok=%v", tc.n, pct, ok, tc.pct, tc.ok)
			continue
		}
		if ok {
			if beyond := tc.n - int(v); beyond < 10 {
				t.Errorf("tail(n=%d) = p%v at %v leaves %d samples beyond it", tc.n, pct, v, beyond)
			}
		}
	}
}

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2.1, 2.0, 2.3, 2.2, 2.05}, 2.025, 2.1, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread(seq(10)); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread(1..10) = %v", got)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}
