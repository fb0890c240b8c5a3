package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at: the
// quartile and the nines. The tail is the highest of them with at least
// minBeyond samples above it, so a run never claims a p99 it has too
// few samples to support. Coarse steps keep 10–100 samples beyond the
// reported percentile rather than 10–20, which keeps the tail steady
// from run to run.
var tailLadder = []float64{50, 75, 90, 99, 99.9, 99.99}

// minBeyond is the number of samples a reported tail must have beyond it.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It
// returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile picks the highest ladder percentile that leaves at
// least minBeyond of n samples strictly beyond it. ok is false when
// not even the median does (n < 2*minBeyond).
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		beyond := float64(n) * (1 - tailLadder[i]/100)
		if beyond >= minBeyond-1e-9 {
			return tailLadder[i], true
		}
	}
	return 0, false
}

// tail reports the tail latency of xs under the ten-beyond rule. When
// there are too few samples for any ladder percentile it falls back to
// the maximum and reports percentile 100.
func tail(xs []float64) (value, pct float64) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		m := math.Inf(-1)
		for _, x := range xs {
			m = math.Max(m, x)
		}
		return m, 100
	}
	return percentile(xs, p), p
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
