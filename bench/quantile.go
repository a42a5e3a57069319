package main

import (
	"math"
	"sort"
)

// hdQuantile is the Harrell–Davis estimate of the p-quantile: a weighted
// sum of every order statistic, the weights being Beta(p(n+1), (1-p)(n+1))
// probability masses over [(i-1)/n, i/n]. Map times cluster by fusing
// pattern, and a plain sample quantile jumps between clusters from run to
// run; HD moves smoothly because every sample contributes.
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var sum, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum
}

// median is the plain sample median.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction by the modified
// Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 10000
		eps     = 1e-15
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c, d := 1.0, 1-qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
