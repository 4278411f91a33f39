package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest value with at least q of the samples at or below it. It is
// the benchmark's own definition, so no change to the program's histograms
// can change how the program is measured. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencySummary is one latency phase's distribution: the median the
// benchmark gates on, and the p99 with the number of samples beyond it,
// printed for reference only.
type latencySummary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	Beyond int     `json:"beyond_p99"`
	Unit   string  `json:"unit"`
}

// summarize sorts durations (in place) and reports them in unit.
func summarize(ds []time.Duration, unit time.Duration, unitName string) latencySummary {
	if len(ds) == 0 {
		return latencySummary{Unit: unitName}
	}
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(vs)
	p99 := percentile(vs, 0.99)
	beyond := len(vs) - sort.Search(len(vs), func(i int) bool { return vs[i] > p99 })
	return latencySummary{N: len(vs), P50: percentile(vs, 0.5), P99: p99, Beyond: beyond, Unit: unitName}
}

// median returns the median of vs (mean of the middle two for even
// lengths), leaving vs untouched.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of vs by
// the "exclusive" method of Python's statistics.quantiles(vs, n=4), the rule
// the steadiness check is defined with. len(vs) must be at least 2.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := float64(len(s))
	at := func(j int) float64 {
		// statistics.quantiles: m = n+1; j-th cut point at position j*m/4.
		pos := float64(j) * (n + 1) / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		if k < 1 {
			return s[0]
		}
		if k >= len(s) {
			return s[len(s)-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(2), at(3)
}

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
