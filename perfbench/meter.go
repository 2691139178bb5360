package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// meter measures the process over a run's timed interval: CPU from
// getrusage, heap allocation and live heap from runtime/metrics, GC and
// scheduler figures from the same source.
type meter struct {
	cpu0, allocs0, gcCPU0, totalCPU0, cycles0 float64
	sched0                                    *metrics.Float64Histogram
	baseLive                                  float64

	mu       sync.Mutex
	peakLive float64
	stop     chan struct{}
	done     chan struct{}
}

const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mSched    = "/sched/latencies:seconds"
)

func readMetrics() map[string]metrics.Value {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mLive}, {Name: mCycles}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mSched}}
	metrics.Read(s)
	out := make(map[string]metrics.Value, len(s))
	for _, x := range s {
		out[x.Name] = x.Value
	}
	return out
}

func number(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return math.NaN()
}

// processCPU returns user+system CPU seconds of the whole process.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// startMeter collects garbage, takes the baseline, and samples the live heap
// every few milliseconds until end is called.
func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	v := readMetrics()
	m.baseLive = number(v[mLive])
	m.peakLive = m.baseLive
	m.allocs0 = number(v[mAllocs])
	m.cycles0 = number(v[mCycles])
	m.gcCPU0 = number(v[mGCCPU])
	m.totalCPU0 = number(v[mTotalCPU])
	m.sched0 = v[mSched].Float64Histogram()
	m.cpu0 = processCPU()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: mLive}}
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				live := number(s[0].Value)
				m.mu.Lock()
				if live > m.peakLive {
					m.peakLive = live
				}
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// reading is the meter's account of one interval.
type reading struct {
	cpuSeconds float64
	allocBytes float64
	peakHeapMB float64
	gcCPUShare float64
	gcCycles   float64
	schedP99Us float64
}

func (m *meter) end() reading {
	cpu := processCPU()
	v := readMetrics()
	close(m.stop)
	<-m.done
	m.mu.Lock()
	peak := m.peakLive
	m.mu.Unlock()
	r := reading{
		cpuSeconds: cpu - m.cpu0,
		allocBytes: number(v[mAllocs]) - m.allocs0,
		peakHeapMB: (peak - m.baseLive) / 1e6,
		gcCycles:   number(v[mCycles]) - m.cycles0,
	}
	if total := number(v[mTotalCPU]) - m.totalCPU0; total > 0 {
		r.gcCPUShare = (number(v[mGCCPU]) - m.gcCPU0) / total
	}
	r.schedP99Us = histQuantile(m.sched0, v[mSched].Float64Histogram(), 0.99) * 1e6
	return r
}

// histQuantile returns quantile q of the difference between two snapshots
// of one runtime/metrics histogram (the upper edge of the bucket holding it).
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	diff := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		diff[i] = after.Counts[i] - before.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range diff {
		cum += c
		if cum >= target {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// quantile returns the q-quantile of xs by linear interpolation (xs is
// sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}
