package harness

import (
	"runtime"
	"sync"
	"time"
)

// MemSampler periodically samples heap usage and table version counts; it
// backs the memory-footprint figures.
type MemSampler struct {
	mu      sync.Mutex
	samples []MemSample
	stop    chan struct{}
	done    chan struct{}
}

// MemSample is one point of the footprint curve.
type MemSample struct {
	Elapsed   time.Duration
	HeapBytes uint64
}

// StartMemSampler begins sampling every interval until Stop is called.
func StartMemSampler(interval time.Duration) *MemSampler {
	m := &MemSampler{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				m.mu.Lock()
				m.samples = append(m.samples, MemSample{
					Elapsed:   time.Since(start),
					HeapBytes: ms.HeapAlloc,
				})
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the collected curve.
func (m *MemSampler) Stop() []MemSample {
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples
}

// Throughput converts an event count and elapsed time into k events/sec,
// the unit of every throughput figure in the paper.
func Throughput(events int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(events) / elapsed.Seconds() / 1000
}

// CPUTicksProxy reports process CPU time and allocation statistics: the
// substitute for the paper's VTune micro-architectural counters (Fig. 21a).
type CPUTicksProxy struct {
	AllocBytes uint64
	Mallocs    uint64
	GCCycles   uint32
	PauseTotal time.Duration
}

// ReadCPUTicksProxy samples the runtime counters.
func ReadCPUTicksProxy() CPUTicksProxy {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return CPUTicksProxy{
		AllocBytes: ms.TotalAlloc,
		Mallocs:    ms.Mallocs,
		GCCycles:   ms.NumGC,
		PauseTotal: time.Duration(ms.PauseTotalNs),
	}
}

// Delta subtracts an earlier sample.
func (c CPUTicksProxy) Delta(earlier CPUTicksProxy) CPUTicksProxy {
	return CPUTicksProxy{
		AllocBytes: c.AllocBytes - earlier.AllocBytes,
		Mallocs:    c.Mallocs - earlier.Mallocs,
		GCCycles:   c.GCCycles - earlier.GCCycles,
		PauseTotal: c.PauseTotal - earlier.PauseTotal,
	}
}

// heapCurve samples the heap every millisecond while run executes, after a
// GC so earlier garbage does not count, and reports the sample count and the
// peak and final heap sizes.
func heapCurve(run func()) (samples int, peak, final uint64) {
	runtime.GC()
	sampler := StartMemSampler(time.Millisecond)
	run()
	curve := sampler.Stop()
	for _, s := range curve {
		peak = max(peak, s.HeapBytes)
		final = s.HeapBytes
	}
	return len(curve), peak, final
}
