// Package metrics holds the paper's Fig. 16a execution-time breakdown
// (Category/Breakdown/Local/Stopwatch), which the engine, the executor, the
// baselines and the benchmark probes all accumulate into. Runtime numbers —
// counters, latency histograms, anything an admin endpoint serves — live in
// internal/telemetry, not here.
package metrics

import (
	"sync/atomic"
	"time"
)

// Category labels one bucket of the execution-time breakdown
// (paper Section 8.3.1).
type Category int

const (
	// Useful: accessing shared mutable state and running UDFs.
	Useful Category = iota
	// Sync: blocking on barriers and mode switches.
	Sync
	// Lock: waiting to insert/acquire locks (baselines).
	Lock
	// Construct: building auxiliary structures (TPG, operation chains).
	Construct
	// Explore: finding ready operations to process.
	Explore
	// Abort: wasted computation from aborts and redos.
	Abort
	numCategories
)

// String names the category as the paper's Fig. 16a does.
func (c Category) String() string {
	switch c {
	case Useful:
		return "Useful"
	case Sync:
		return "Sync"
	case Lock:
		return "Lock"
	case Construct:
		return "Construct"
	case Explore:
		return "Explore"
	case Abort:
		return "Abort"
	}
	return "?"
}

// Categories lists all breakdown buckets in display order.
func Categories() []Category {
	return []Category{Useful, Sync, Lock, Construct, Explore, Abort}
}

// Breakdown accumulates nanoseconds per category. All methods tolerate a
// nil receiver so instrumentation can be compiled in unconditionally and
// enabled per run.
type Breakdown struct {
	buckets [numCategories]atomic.Int64
}

// Add accumulates d into category c.
func (b *Breakdown) Add(c Category, d time.Duration) {
	if b == nil {
		return
	}
	b.buckets[c].Add(int64(d))
}

// Get returns the accumulated duration of category c.
func (b *Breakdown) Get(c Category) time.Duration {
	if b == nil {
		return 0
	}
	return time.Duration(b.buckets[c].Load())
}

// Total sums all categories.
func (b *Breakdown) Total() time.Duration {
	if b == nil {
		return 0
	}
	var t time.Duration
	for c := Category(0); c < numCategories; c++ {
		t += b.Get(c)
	}
	return t
}

// Local is a per-worker breakdown scratchpad: plain (non-atomic) counters a
// single worker accumulates into during its hot loop, merged into the shared
// Breakdown at stratum boundaries or at the end of a batch. It keeps the
// ns-scale execution path free of shared-cacheline atomics.
type Local struct {
	buckets [numCategories]int64
}

// Add accumulates d into category c. Not safe for concurrent use; each
// worker owns its Local exclusively.
func (l *Local) Add(c Category, d time.Duration) {
	l.buckets[c] += int64(d)
}

// FlushTo merges the accumulated counters into b (which may be nil) and
// zeroes the scratchpad.
func (l *Local) FlushTo(b *Breakdown) {
	for c := range l.buckets {
		if v := l.buckets[c]; v != 0 {
			if b != nil {
				b.buckets[c].Add(v)
			}
			l.buckets[c] = 0
		}
	}
}

// Stopwatch measures one interval for a Breakdown bucket.
type Stopwatch struct{ start time.Time }

// Start begins a measurement.
func Start() Stopwatch { return Stopwatch{start: time.Now()} }

// Stop accumulates the elapsed time into b's category c; b may be nil.
func (s Stopwatch) Stop(b *Breakdown, c Category) {
	if b != nil {
		b.Add(c, time.Since(s.start))
	}
}

// StopLocal accumulates the elapsed time into a worker-local scratchpad.
func (s Stopwatch) StopLocal(l *Local, c Category) {
	l.Add(c, time.Since(s.start))
}
