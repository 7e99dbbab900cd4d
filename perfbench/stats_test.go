package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, unsorted
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestBeyondAndHighestSupported(t *testing.T) {
	candidates := []float64{90, 95, 99, 99.9}
	for _, c := range []struct {
		n      int
		beyond int // samples beyond p90
		best   float64
	}{
		{99, 9, 50},     // p90 has only 9 samples beyond it
		{100, 10, 90},   // the smallest count that supports p90
		{199, 19, 90},   // p95 would leave 9
		{200, 20, 95},   // p95 leaves exactly 10
		{999, 99, 95},   // p99 would leave 9
		{1000, 100, 99}, // p99 leaves 10; p99.9 only 1
		{10000, 1000, 99.9},
	} {
		if got := beyond(c.n, 90); got != c.beyond {
			t.Errorf("n=%d: beyond p90 = %d, want %d", c.n, got, c.beyond)
		}
		if got := highestSupported(c.n, candidates); got != c.best {
			t.Errorf("n=%d: highest supported = p%g, want p%g", c.n, got, c.best)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}
