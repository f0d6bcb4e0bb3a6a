package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics; 0 for empty input. xs is sorted
// in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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

// minPerSlice is the fewest samples a latency slice may hold.
const minPerSlice = 1000

// subBuckets is the number of histogram buckets per power of two: a bucket
// spans under 1.1% of its value.
const subBuckets = 64

// histBuckets covers values up to 2^40 ns (18 minutes).
const histBuckets = 40 * subBuckets

// histSlice is the time resolution of a hist.
const histSlice = 500 * time.Millisecond

// hist records non-negative durations (ns) completed inside a phase into
// one log-bucketed histogram per histSlice of the phase. It is safe for
// concurrent use and its memory does not grow with the sample count, so
// recording leaves the heap the run measures alone.
type hist struct {
	ph     phase
	slices [][histBuckets]atomic.Uint64
}

func newHist(ph phase) *hist {
	n := max(1, int((ph.to-ph.from+histSlice-1)/histSlice))
	return &hist{ph: ph, slices: make([][histBuckets]atomic.Uint64, n)}
}

func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	return min(histBuckets-1, int(math.Log2(v)*subBuckets))
}

// bucketValue is the geometric midpoint of a bucket.
func bucketValue(i int) float64 { return math.Exp2((float64(i) + 0.5) / subBuckets) }

// add records v for a sample completed at clock time at.
func (h *hist) add(at time.Duration, v float64) {
	if !h.ph.in(at) {
		return
	}
	h.slices[int((at-h.ph.from)/histSlice)][bucketOf(v)].Add(1)
}

// sliced reports the median, across equal slices of the phase, of each
// slice's q-quantile, and the total sample count. One stall then moves one
// slice's tail, not the run's figure. The slices are one second long, or
// longer when a slice would hold under minPerSlice samples, so a slice's
// 99th percentile still has ten samples beyond it.
func (h *hist) sliced(q float64) (float64, int) {
	counts := make([][histBuckets]uint64, len(h.slices))
	total := 0
	for i := range h.slices {
		for b := range h.slices[i] {
			c := h.slices[i][b].Load()
			counts[i][b] = c
			total += int(c)
		}
	}
	n := max(1, min(len(counts), total/minPerSlice))
	var per []float64
	for g := 0; g < n; g++ {
		var merged [histBuckets]uint64
		var in uint64
		for i := g * len(counts) / n; i < (g+1)*len(counts)/n; i++ {
			for b, c := range counts[i] {
				merged[b] += c
				in += c
			}
		}
		if in == 0 {
			continue
		}
		// The smallest bucket whose cumulative count reaches q of the slice.
		rank := uint64(math.Ceil(q * float64(in)))
		var cum uint64
		for b, c := range merged {
			cum += c
			if cum >= max(rank, 1) {
				per = append(per, bucketValue(b))
				break
			}
		}
	}
	return median(per), total
}

// sliceRate is the median, across the phase's slices, of each slice's
// sample count times per, per second: the typical rate, which a burst of
// CPU taken by other load on the host moves in a few slices only.
func (h *hist) sliceRate(per float64) float64 {
	rates := make([]float64, len(h.slices))
	for i := range h.slices {
		var n uint64
		for b := range h.slices[i] {
			n += h.slices[i][b].Load()
		}
		// The last slice ends with the phase.
		length := min(histSlice, h.ph.to-h.ph.from-time.Duration(i)*histSlice)
		rates[i] = float64(n) * per / length.Seconds()
	}
	return median(rates)
}

// heapSampler samples HeapInuse (heap spans holding objects) every 10ms
// inside a phase, from runtime/metrics so sampling never stops the world.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

var heapInuse = []rtmetrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

func startHeapSampler(ph phase) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if ph.in(now()) {
					rtmetrics.Read(heapInuse)
					h.samples = append(h.samples, float64(heapInuse[0].Value.Uint64()+heapInuse[1].Value.Uint64()))
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes, taken as the
// 95th percentile of the samples: the top of the GC sawtooth the program
// keeps returning to, rather than one sample's extreme, which moves with
// where a collection happened to fall.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.95)
}
