package main

import (
	"slices"
	"sort"
)

// percentile returns the q-quantile (0 < q < 1) of an ascending sample
// by nearest rank. An empty sample yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// supported reports whether a sample of n has at least ten observations
// beyond the q-quantile — the rule for quoting a tail percentile at all.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// tailLadder lists the percentiles the benchmark may quote, ascending.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// tail returns the q-quantile when the sample supports it, and otherwise
// the highest percentile of the ladder below q that it does support
// (never lower than the median), together with the percentile used.
func tail(sorted []float64, q float64) (value, used float64) {
	used = tailLadder[0]
	for _, c := range tailLadder {
		if c <= q && supported(len(sorted), c) {
			used = c
		}
	}
	return percentile(sorted, used), used
}

// sortedMillis converts nanosecond samples to ascending milliseconds.
func sortedMillis(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// per divides a total by a count, yielding 0 for an empty count so that a
// run that delivered nothing reports zeros beside its failure.
func per(total, count float64) float64 {
	if count == 0 {
		return 0
	}
	return total / count
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is what the benchmark driver applies to its ten runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	if len(s) < 2 {
		return s[0], s[0]
	}
	return at(1), at(3)
}
