package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentile is the Harrell–Davis estimate of the q-quantile of xs, used
// for the reported latency percentiles: a weighted mean of all order
// statistics, the i-th (of n) weighted by the Beta((n+1)q, (n+1)(1−q))
// probability of [i/n, (i+1)/n]. Unlike the interpolated sample quantile it
// does not jump when the two values next to the quantile are far apart,
// which the job times of a batch pass often are. With too few values for
// the weights to be finite it falls back to quantile.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	if a < 1 || b < 1 {
		return quantile(xs, q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log(1-x) - la - lb + lab)
	}
	const steps = 16 // Simpson's rule per order statistic
	sum, wsum := 0.0, 0.0
	for i, v := range s {
		lo, h := float64(i)/float64(n), 1/float64(n*steps)
		w := pdf(lo) + pdf(lo+float64(steps)*h)
		for k := 1; k < steps; k++ {
			w += float64(2+2*(k%2)) * pdf(lo+float64(k)*h)
		}
		sum += w * v
		wsum += w
	}
	return sum / wsum
}

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides two counts, 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
