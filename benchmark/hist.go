package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-bucketed histogram of non-negative samples (nanoseconds
// here): 128 buckets per power of two, so a reported quantile is within 0.8%
// of the exact one, at a fixed 57 KiB whatever the sample count.
type hist struct {
	counts [57 * histSub]int64
	n      int64
	max    int64
}

const (
	histBits = 7
	histSub  = 1 << histBits
)

func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - histBits
	return (e+1)<<histBits | int(v>>e)&(histSub-1)
}

// histMid is the midpoint of bucket i.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i>>histBits - 1
	low := int64(histSub+i&(histSub-1)) << e
	return float64(low) + float64(int64(1)<<e)/2
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// quantile returns the q-quantile (0 < q <= 1), or 0 without samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Min(histMid(i), float64(h.max))
		}
	}
	return float64(h.max)
}

// beyond counts the samples above the q-quantile's rank.
func (h *hist) beyond(q float64) int64 {
	return h.n - int64(math.Ceil(q*float64(h.n)))
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// median of xs; 0 when empty. xs is left unsorted.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles are Python's statistics.quantiles(xs, n=4): the method the
// benchmark's bounds and spreads are defined with. One sample is its own
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
