package main

import (
	"math/rand"
	"sort"
)

// weightedKeys draws address keys with probability proportional to each
// address's weight. lookup-zipf weighs every address by the waybills the
// city file's trips carry for it, so the lookup traffic has the city's own
// order skew: synth gives each address a log-normal order frequency (the
// heavy tail of the paper's Fig. 9(b)), and an app that looks up the
// address of every new order looks addresses up at that frequency. It is
// the benchmark's own generator, independent of internal/loadgen.
type weightedKeys struct {
	keys []int64   // keys with a positive weight, ascending
	cdf  []float64 // cdf[i] = P(key <= keys[i])
	rng  *rand.Rand
}

// newWeightedKeys returns a generator over the keys of weights with a
// positive weight, seeded by seed. The same seed and weights give the same
// sequence of draws.
func newWeightedKeys(weights map[int64]int, seed int64) *weightedKeys {
	z := &weightedKeys{rng: rand.New(rand.NewSource(seed))}
	for k, w := range weights {
		if w > 0 {
			z.keys = append(z.keys, k)
		}
	}
	sort.Slice(z.keys, func(i, j int) bool { return z.keys[i] < z.keys[j] })
	z.cdf = make([]float64, len(z.keys))
	total := 0.0
	for i, k := range z.keys {
		total += float64(weights[k])
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

// next draws one key.
func (z *weightedKeys) next() int64 {
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if i >= len(z.keys) {
		i = len(z.keys) - 1
	}
	return z.keys[i]
}

// draw returns the next n keys.
func (z *weightedKeys) draw(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = z.next()
	}
	return out
}
