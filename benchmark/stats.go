package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle of vs (the mean of the two middle values for an
// even count), or NaN for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// quartiles returns the first quartile, median and third quartile of vs with
// the "exclusive" method Python's statistics.quantiles(vs, n=4) uses — the
// rule the acceptance procedure in README.md is written against. Fewer than
// two values have no quartiles: all three results are then the single value
// (or NaN for none).
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 3 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// bestQuarter is the mean of the best quarter of vs (at least one value): the
// highest when higher is better, else the lowest. It is how a run condenses
// its windows. On the shared box the benchmark runs on, a neighbour can only
// slow a window down, never speed it up, so the windows at the good end are
// the ones that measured the engine; NOISE.md shows the median of the windows
// scattering up to twice as much between runs of the same code.
func bestQuarter(vs []float64, higherBetter bool) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := (len(s) + 3) / 4
	if higherBetter {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(k)
}

// histogram is a log-linear latency histogram over nanoseconds: every power
// of two is cut into 2^histSubBits equal buckets, so a bucket is at most
// 0.8% wide and recording is two shifts and an increment with no allocation
// — the measured loop records ~10^6 samples per run and must neither
// allocate nor miss the cache. Values above ~18 minutes are clamped.
type histogram struct {
	counts [histBuckets]uint32
	n      uint64
	max    uint64
}

const (
	histSubBits = 7
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
)

func (h *histogram) record(ns uint64) {
	if ns > h.max {
		h.max = ns
	}
	if ns >= 1<<histMaxBits {
		ns = 1<<histMaxBits - 1
	}
	idx := ns
	if ns >= 1<<histSubBits {
		shift := uint(bits.Len64(ns)) - histSubBits - 1
		idx = uint64(shift)<<histSubBits + ns>>shift
	}
	h.counts[idx]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it; NaN for an empty histogram.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lower, width := float64(i), 1.0
			if i >= 1<<histSubBits {
				shift := uint(i>>histSubBits) - 1
				lower = float64(uint64(i&(1<<histSubBits-1)+1<<histSubBits) << shift)
				width = float64(uint64(1) << shift)
			}
			return lower + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}
