package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram: values below 2^subBits are
// exact, larger ones keep subBits significant bits (relative error under
// 0.4%). It is fine enough that reported percentiles carry real digits,
// and fixed-size so recording never allocates.
type hist struct {
	counts []uint32
	n      uint64
}

const (
	subBits  = 8
	subCount = 1 << subBits
	maxExp   = 35 // values up to ~34 s in ns; larger ones clamp
	nBuckets = (maxExp - subBits + 2) * subCount
)

func newHist() *hist { return &hist{counts: make([]uint32, nBuckets)} }

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - subBits // >= 1
	if e > maxExp-subBits+1 {
		return nBuckets - 1
	}
	return e*subCount + int(v>>(e-1)) - subCount
}

// bucketValue is the lowest value that maps to bucket b.
func bucketValue(b int) uint64 {
	if b < subCount {
		return uint64(b)
	}
	e := b / subCount
	return uint64(b%subCount+subCount) << (e - 1)
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile returns the value at rank ceil(q*n) (nearest rank).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return float64(bucketValue(b))
		}
	}
	return float64(bucketValue(len(h.counts) - 1))
}

// tailQuantile applies the reporting rule for a tail percentile: use the
// wanted quantile if at least minBeyond samples lie beyond it, otherwise
// the highest quantile that has minBeyond samples beyond it. It returns
// the quantile actually used (0 when the sample is too small for any).
func tailQuantile(n uint64, want float64, minBeyond uint64) float64 {
	if n <= minBeyond {
		return 0
	}
	if float64(n)*(1-want) >= float64(minBeyond) {
		return want
	}
	return 1 - float64(minBeyond)/float64(n)
}

// median of xs (mean of the two middle values for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowed holds one worker's latency histograms per time window and op
// class. Windows make the run's figures robust to a transient stall: a
// percentile is computed per window over all workers, and the run
// reports the median across windows.
type windowed struct {
	h   [][nClasses]*hist
	ops []uint64 // completed ops per window
}

func newWindowed(windows int) *windowed {
	w := &windowed{h: make([][nClasses]*hist, windows), ops: make([]uint64, windows)}
	for i := range w.h {
		for c := range w.h[i] {
			w.h[i][c] = newHist()
		}
	}
	return w
}

func (w *windowed) record(window, class int, ns int64) {
	if window < 0 || window >= len(w.h) {
		return
	}
	w.h[window][class].record(ns)
	w.ops[window]++
}

// latencyReport is the end-to-end latency summary of one class.
type latencyReport struct {
	samples uint64
	p50     float64 // median over windows of the window p50, ns
	p90     float64 // median over windows of the window p90, ns
	tail    float64 // median over windows of the window tail percentile, ns
	tailQ   float64 // the tail quantile used (0.99 unless the sample was small)
}

// summarize merges workers window by window and reports the median of
// the per-window percentiles, plus the median per-window throughput.
func summarize(ws []*windowed, windowSec float64, wantTail float64) (rep [nClasses]latencyReport, opsPerSec float64) {
	if len(ws) == 0 {
		return rep, 0
	}
	nw := len(ws[0].h)
	var p50s, p90s, tails [nClasses][]float64
	var rates []float64
	merged := newHist()
	for win := 0; win < nw; win++ {
		var ops uint64
		for _, w := range ws {
			ops += w.ops[win]
		}
		rates = append(rates, float64(ops)/windowSec)
		for c := 0; c < nClasses; c++ {
			merged.reset()
			for _, w := range ws {
				merged.merge(w.h[win][c])
			}
			rep[c].samples += merged.n
			if merged.n == 0 {
				continue
			}
			p50s[c] = append(p50s[c], merged.quantile(0.5))
			p90s[c] = append(p90s[c], merged.quantile(0.9))
			if q := tailQuantile(merged.n, wantTail, 10); q > 0 {
				tails[c] = append(tails[c], merged.quantile(q))
				if rep[c].tailQ == 0 || q < rep[c].tailQ {
					rep[c].tailQ = q
				}
			}
		}
	}
	for c := range rep {
		rep[c].p50 = median(p50s[c])
		rep[c].p90 = median(p90s[c])
		rep[c].tail = median(tails[c])
	}
	return rep, median(rates)
}
