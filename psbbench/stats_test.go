package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10.0, 12.5, 11.0, 30.0, 9.5, 10.5, 11.5, 10.0, 10.2, 10.8}, 10.65},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 4, 9}); !near(got, 4) {
		t.Errorf("mean = %v, want 4", got)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean of nothing should be NaN")
	}
	if !math.IsInf(mean([]float64{1, math.Inf(1)}), 1) {
		t.Error("a failed request (+Inf) must not vanish from the mean")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{0.5, 4, 32}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{7}); !near(got, 7) {
		t.Errorf("geomean of one value = %v, want 7", got)
	}
	// Doubling one of three classes moves it by the cube root of 2.
	if got := geomean([]float64{1, 2, 1}); !near(got, math.Cbrt(2)) {
		t.Errorf("geomean = %v, want %v", got, math.Cbrt(2))
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("geomean of nothing should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 2.2}, [3]float64{0.5, 2.2, 3.1}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10.0, 12.5, 11.0, 30.0, 9.5, 10.5, 11.5, 10.0, 10.2, 10.8}, [3]float64{10.0, 10.65, 11.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	// One outlier out of ten moves neither quartile much: spread is
	// (11.75-10.0)/10.65.
	xs := []float64{10.0, 12.5, 11.0, 30.0, 9.5, 10.5, 11.5, 10.0, 10.2, 10.8}
	if got := spread(xs); !near(got, 1.75/10.65) {
		t.Errorf("spread = %v, want %v", got, 1.75/10.65)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{2000, 99, 1980},    // p99.9 would leave 2 beyond; p99 leaves 20
		{1000, 99, 990},     // exactly 10 beyond p99
		{999, 95, 950},      // p99 rank 990 leaves 9 beyond
		{150, 90, 135},      // p95 rank 143 leaves 7
		{75, 80, 60},        // p90 rank 68 leaves 7
		{100, 90, 90},       // p90 rank 90 leaves exactly 10
		{20, 50, 10},        // only the median qualifies
		{10000, 99.9, 9990}, // p99.9 leaves exactly 10
	} {
		pct, v, ok := tail(seq(c.n))
		if !ok || pct != c.pct || v != c.want {
			t.Errorf("tail of 1..%d = p%v %v (ok=%v), want p%v %v", c.n, pct, v, ok, c.pct, c.want)
		}
		r := nearestRank(pct, c.n)
		if beyond := c.n - r; beyond < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, pct, beyond)
		}
	}
	if _, _, ok := tail(seq(19)); ok {
		t.Error("19 samples cannot have 10 beyond the median")
	}
}

func TestTailCountsFailuresBeyond(t *testing.T) {
	// 90 fast requests and 10 failures: the failures occupy the top
	// ten ranks, so p90 is still a real latency, and any failure more
	// pushes the tail to +Inf.
	xs := seq(90)
	for i := 0; i < 10; i++ {
		xs = append(xs, math.Inf(1))
	}
	if pct, v, _ := tail(xs); pct != 90 || v != 90 {
		t.Errorf("tail = p%v %v, want p90 90", pct, v)
	}
	xs = seq(89)
	for i := 0; i < 11; i++ {
		xs = append(xs, math.Inf(1))
	}
	if _, v, _ := tail(xs); !math.IsInf(v, 1) {
		t.Errorf("tail with 11 failures in 100 = %v, want +Inf", v)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{99, 99}, {50, 50}, {1, 1}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}
