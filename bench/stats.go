package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or
// 0 for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// chunkedPercentile is a run's robust p-quantile: xs, in the order the
// work was due, is cut into consecutive chunks of at least size samples,
// the quantile is taken within each chunk, and the median of those is
// returned. A burst of interference from outside the process then moves
// one chunk's value rather than the run's.
func chunkedPercentile(xs []float64, size int, p float64) float64 {
	n := max(1, len(xs)/size)
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		chunk := append([]float64(nil), xs[i*len(xs)/n:(i+1)*len(xs)/n]...)
		per = append(per, percentile(chunk, p))
	}
	return median(per)
}

// median is the middle value of xs, or the mean of the two middle values
// for an even count (as Python's statistics.median); 0 for an empty
// sample. xs is left untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if n := len(d); n%2 == 0 {
		return (d[n/2-1] + d[n/2]) / 2
	}
	return d[len(d)/2]
}

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones a Python reviewer recomputes.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := max(1, min(i*m/n, len(d)-1))
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msAll converts durations to fractional milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// usAll converts durations to fractional microseconds.
func usAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// share is num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
