package main

import (
	"math"
	"sort"

	"jarvis/internal/trace"
)

// minBeyond is how many samples must lie past a percentile before the
// benchmark reports it: a p99 over fewer than 1000 samples would rest on
// a handful of outliers.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n sorted samples: the smallest position with at
// least p% of the samples at or below it.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly past the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// qualified reports whether the p-th percentile of n samples has at least
// minBeyond samples beyond it.
func qualified(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// percentile reads the nearest-rank p-th percentile of sorted samples; 0
// for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same exclusive method as Python's statistics.quantiles(xs, n=4),
// so a report's spread reads the same as one computed from its values.
// One sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children count
// once, and a child running past its parent counts only inside it.
func selfTimes(td *trace.TraceData) []int64 {
	children := make([][]int, len(td.Spans))
	for i, sp := range td.Spans {
		if sp.Parent >= 0 && sp.Parent < len(td.Spans) {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	out := make([]int64, len(td.Spans))
	for i, sp := range td.Spans {
		lo, hi := sp.StartNs, sp.StartNs+sp.DurNs
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := td.Spans[c].StartNs, td.Spans[c].StartNs+td.Spans[c].DurNs
			a, b = max(a, lo), min(b, hi)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64
		end = lo
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		out[i] = sp.DurNs - covered
	}
	return out
}
