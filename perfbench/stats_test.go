package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

func TestQuantileIsExactNotBucketed(t *testing.T) {
	// Values a power-of-two histogram would round to one bucket bound.
	xs := []float64{6.5, 6.6, 6.7, 6.8, 12.1}
	if got := quantile(xs, 0.5); got != 6.7 {
		t.Errorf("median = %v, want the raw sample 6.7", got)
	}
}

func TestBeyondCountsTailSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {102, 0.9, 10}, {84, 0.9, 8}, {132, 0.9, 13}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if median(xs) != 2 || xs[0] != 3 {
		t.Errorf("median sorted its input: %v", xs)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %v, want 2", got)
	}
}
