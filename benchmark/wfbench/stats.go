package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of an ascending sample, interpolating
// linearly between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf returns the q-quantile of an unsorted sample.
func quantileOf(xs []float64, q float64) float64 { return quantile(sortedCopy(xs), q) }

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), the
// rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := sortedCopy(xs)
	n := len(data)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Runtime metrics read around each measured phase.
const (
	liveHeapMetric = "/gc/heap/live:bytes"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric = "/cpu/classes/total:cpu-seconds"
)

// readRuntime reads runtime/metrics values, as float64.
func readRuntime(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// liveHeap returns the bytes the last collection found live.
func liveHeap() uint64 { return uint64(readRuntime(liveHeapMetric)[0]) }

// heapEvery is how often a heap sampler reads the live heap. The workloads
// collect garbage every few milliseconds, so the sampler sees most
// collections.
const heapEvery = 10 * time.Millisecond

// heapPeakQuantile is the quantile of the live heap over the collections
// of a timed phase that stands for its peak. The largest reading falls on
// whichever collection happened to land mid-burst and jumps by a factor of
// two between identical runs; the 99th percentile holds within a few
// percent.
const heapPeakQuantile = 0.99

// heapSampler reads the live heap every heapEvery while a timed phase runs,
// once per collection.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		var live []float64
		lastCycle := -1.0
		read := func() {
			v := readRuntime(liveHeapMetric, gcCyclesMetric)
			if v[1] != lastCycle {
				live = append(live, v[0])
				lastCycle = v[1]
			}
		}
		read()
		for {
			select {
			case <-tick.C:
				read()
			case <-h.stop:
				read()
				h.peak <- uint64(quantileOf(live, heapPeakQuantile))
				return
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak live heap it saw, in bytes.
func (h *heapSampler) end() uint64 {
	close(h.stop)
	return <-h.peak
}

// usage is a snapshot of the process's allocation and CPU counters.
type usage struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := readRuntime(gcCPUMetric, totalCPUMetric)
	return usage{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: cpu[0], cpu: cpu[1]}
}

// usageDelta is what happened between two snapshots.
type usageDelta struct {
	mallocs, bytes uint64
	gcFrac         float64 // GC CPU over all CPU
}

func (u usage) since(prev usage) usageDelta {
	d := usageDelta{mallocs: u.mallocs - prev.mallocs, bytes: u.bytes - prev.bytes}
	if cpu := u.cpu - prev.cpu; cpu > 0 {
		d.gcFrac = (u.gcCPU - prev.gcCPU) / cpu
	}
	return d
}
