package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestBetaIncKnownValues(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{2, 1, 0.3, 0.09},
		{1, 2, 0.3, 1 - 0.7*0.7},
		{3.5, 3.5, 0.5, 0.5},
		{60.5, 60.5, 0.5, 0.5},
		{5, 5, 0, 0},
		{5, 5, 1, 1},
	} {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestHDQuantileSymmetric(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-51) > 1e-9 {
		t.Errorf("HD median of 1..101 = %v, want 51", got)
	}
	if lo, hi := hdQuantile(xs, 0.1), hdQuantile(xs, 0.9); math.Abs(lo+hi-102) > 1e-9 || lo >= hi {
		t.Errorf("HD p10/p90 of 1..101 = %v/%v, want symmetric about 51", lo, hi)
	}
	if got := hdQuantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("HD of one sample = %v, want 7", got)
	}
}

// Map times cluster by fusing pattern. When the median falls between two
// clusters, the plain sample median jumps from one cluster to the other
// between resamples; the Harrell–Davis estimate must move much less.
func TestHDQuantileStableOnClusteredSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func() float64 {
		x := rng.Float64()
		switch {
		case x < 0.49:
			return 50 * (1 + 0.05*rng.NormFloat64())
		case x < 0.85:
			return 400 * (1 + 0.05*rng.NormFloat64())
		default:
			return 1200 * (1 + 0.05*rng.NormFloat64())
		}
	}
	var plain, hd []float64
	for rep := 0; rep < 300; rep++ {
		xs := make([]float64, 48)
		for i := range xs {
			xs[i] = draw()
		}
		plain = append(plain, median(xs))
		hd = append(hd, hdQuantile(xs, 0.5))
	}
	sd := func(xs []float64) float64 {
		var m, v float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		for _, x := range xs {
			v += (x - m) * (x - m)
		}
		return math.Sqrt(v / float64(len(xs)))
	}
	if sp, sh := sd(plain), sd(hd); sh > 0.75*sp {
		t.Errorf("HD median spread %.1f is not well below the plain median's %.1f", sh, sp)
	}
}
