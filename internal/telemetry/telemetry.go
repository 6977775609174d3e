// Package telemetry is the engine's runtime-observability subsystem: a
// registry of lock-free instruments cheap enough for the execution hot path,
// plus exposition (Prometheus text format and JSON snapshots, expo.go) and an
// admin HTTP server (/metrics, /statusz, /healthz, pprof — admin.go).
//
// # Instruments
//
// Counter and Histogram are plain atomics: a counter is one atomic.Int64, a
// histogram one array of atomic bucket counts plus a count/sum pair. No
// instrument has more than one writer on a hot path, so nothing is striped.
// A Histogram uses fixed log-linear buckets (eight per power of two, exposed
// as power-of-two le bounds) — recording is one bit-length computation plus
// three atomic adds, no allocation, no lock, no floating point.
//
// CounterFunc and GaugeFunc are read-only instruments evaluated at scrape
// time, for values something else already maintains (ring depth, overlap
// meter readings, runtime stats).
//
// # Nil safety
//
// Instrumentation compiles in unconditionally and is enabled per engine by
// passing a Registry. Every constructor on a nil *Registry returns a nil
// instrument, and every mutation on a nil instrument is a no-op — one
// predictable branch — so the uninstrumented hot path pays a nil check and
// nothing else (BenchmarkTelemetryInstruments pins the costs).
package telemetry

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
)

// desc is the identity every instrument shares: the metric name (family),
// an optional single label pair, and the help line.
type desc struct {
	name  string // family name, e.g. "morph_rpc_frames_in_total"
	label string // label key, "" for unlabelled instruments
	value string // label value
	help  string
}

// Counter is a monotonically increasing counter.
type Counter struct {
	d desc
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Bucket layout (HDR-style). Exposition speaks power-of-two octaves: octave o
// covers (2^(o-1), 2^o], octave 0 covers [0,1], and the last octave is the
// +Inf overflow — 40 finite octaves span 1ns..~9min when recording
// nanoseconds. Inside an octave the histogram keeps subPerOctave linear
// sub-buckets (exponent from bits.Len64, subBits mantissa bits), so a quantile
// read off the buckets is within 1/subPerOctave of the exact order statistic;
// values up to 2*subPerOctave get one exact bucket each.
const (
	subBits      = 3
	subPerOctave = 1 << subBits
	numOctaves   = 41
	numBuckets   = (numOctaves-subBits-1)*subPerOctave + 1 // last = overflow
)

// Histogram is a fixed log-linear-bucket histogram: Record costs one
// bit-length computation and three atomic adds. Values are int64 (record
// time.Duration nanoseconds directly); negatives clamp to 0. The zero value
// is ready to use without a registry.
type Histogram struct {
	d       desc
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps v to its sub-bucket. With u = v-1 (so upper bounds are
// inclusive), u < 2*subPerOctave indexes itself; above that the index is the
// octave's shift in the high bits and u's top subBits+1 bits in the low ones.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	u := uint64(v - 1)
	if u < 2*subPerOctave {
		return int(u)
	}
	shift := bits.Len64(u) - (subBits + 1)
	if b := shift<<subBits + int(u>>shift); b < numBuckets {
		return b
	}
	return numBuckets - 1
}

// bucketBound is sub-bucket b's inclusive upper bound.
func bucketBound(b int) int64 {
	switch {
	case b < 2*subPerOctave:
		return int64(b) + 1
	case b >= numBuckets-1:
		return math.MaxInt64 // overflow: effectively +Inf
	}
	return int64(subPerOctave+1+b&(subPerOctave-1)) << (b>>subBits - 1)
}

// octaveOf maps sub-bucket b to the power-of-two exposition bucket holding it.
func octaveOf(b int) int {
	if b < subPerOctave {
		return bits.Len(uint(b))
	}
	return b>>subBits + subBits
}

// Record adds one observation. No-op on a nil receiver.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is one reading of a Histogram.
type HistSnapshot struct {
	// Buckets holds per-sub-bucket (non-cumulative) counts: eight linear
	// sub-buckets per power of two, the last bucket overflows.
	Buckets [numBuckets]int64
	// Count is the total number of recorded observations.
	Count int64
	// Sum is the sum of all recorded values (negatives clamp to 0).
	Sum int64
}

// Snapshot reads the histogram. Record touches its bucket before count, and
// Snapshot reads count before the buckets, so a racing snapshot can
// over-read buckets relative to count but never under-read: sum(Buckets) >=
// Count always, with equality at quiescence. Every individually read value
// is monotonic across snapshots.
func (h *Histogram) Snapshot() HistSnapshot {
	var out HistSnapshot
	if h == nil {
		return out
	}
	out.Count = h.count.Load()
	out.Sum = h.sum.Load()
	for b := range h.buckets {
		out.Buckets[b] = h.buckets[b].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (q clamped to [0,1]; 0 when empty) as
// the upper bound of the sub-bucket holding that rank: never below the exact
// order statistic and at most 12.5% above it. Exposition-time only — never on
// a hot path.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	var rank int64
	if q > 0 { // false for NaN too
		rank = min(int64(math.Min(q, 1)*float64(s.Count)), s.Count-1)
	}
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen > rank {
			return bucketBound(i)
		}
	}
	return bucketBound(numBuckets - 1)
}

// octaves folds the sub-buckets into the power-of-two buckets /metrics emits.
func (s HistSnapshot) octaves() (out [numOctaves]int64) {
	for b, c := range s.Buckets {
		out[octaveOf(b)] += c
	}
	return out
}

// CounterFunc is a scrape-time counter backed by a callback (a total some
// other subsystem already maintains, e.g. the ingest queue's stall count).
type CounterFunc struct {
	d  desc
	fn func() int64
}

// Value evaluates the callback.
func (c *CounterFunc) Value() int64 {
	if c == nil || c.fn == nil {
		return 0
	}
	return c.fn()
}

// GaugeFunc is a scrape-time gauge backed by a callback (ring depth, live
// sessions, heap bytes).
type GaugeFunc struct {
	d  desc
	fn func() int64
}

// Value evaluates the callback.
func (g *GaugeFunc) Value() int64 {
	if g == nil || g.fn == nil {
		return 0
	}
	return g.fn()
}

// instrument is the registry's view of any instrument kind.
type instrument struct {
	d desc
	c *Counter
	h *Histogram
	// cf/gf are the callback variants.
	cf *CounterFunc
	gf *GaugeFunc
}

func (in instrument) kind() string {
	switch {
	case in.c != nil, in.cf != nil:
		return "counter"
	case in.gf != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds a process's instruments. Construction (the Counter and
// Histogram lookups) takes a mutex and is meant for setup paths — engines
// create their instruments once and hold the pointers; only the returned
// instruments are hot-path safe. Registration is idempotent: asking for an
// existing (name, label value) returns the existing instrument, so
// subsystems opened repeatedly against one registry (a WAL reopened across
// restarts) keep accumulating into the same series.
type Registry struct {
	mu    sync.Mutex
	order []string // registration order of series keys
	by    map[string]instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]instrument)}
}

// seriesKey identifies one series: family plus label value.
func seriesKey(name, value string) string {
	if value == "" {
		return name
	}
	return name + "\x00" + value
}

// lookup returns the existing instrument for key, or registers the one built
// by mk. Returns a zero instrument on a nil registry.
func (r *Registry) lookup(d desc, mk func() instrument) instrument {
	if r == nil {
		return instrument{}
	}
	key := seriesKey(d.name, d.value)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.by[key]; ok {
		return in
	}
	in := mk()
	r.by[key] = in
	r.order = append(r.order, key)
	return in
}

// Counter returns (registering if needed) the counter called name. Nil
// registry returns a nil instrument whose methods are no-ops.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help, "", "")
}

// CounterL returns the counter series of family name with one label pair
// (e.g. CounterL("frames_in_total", "...", "type", "submit")). Series of one
// family share HELP/TYPE in the exposition.
func (r *Registry) CounterL(name, help, labelKey, labelVal string) *Counter {
	d := desc{name: name, label: labelKey, value: labelVal, help: help}
	return r.lookup(d, func() instrument {
		return instrument{d: d, c: &Counter{d: d}}
	}).c
}

// Histogram returns (registering if needed) the histogram called name.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramL(name, help, "", "")
}

// HistogramL returns the histogram series of family name with one label pair.
func (r *Registry) HistogramL(name, help, labelKey, labelVal string) *Histogram {
	d := desc{name: name, label: labelKey, value: labelVal, help: help}
	return r.lookup(d, func() instrument {
		return instrument{d: d, h: &Histogram{d: d}}
	}).h
}

// CounterFunc registers a scrape-time counter evaluated through fn. A second
// registration of the same name replaces the callback (engines restarted
// against one registry re-point the callback at the live pipeline).
func (r *Registry) CounterFunc(name, help string, fn func() int64) *CounterFunc {
	d := desc{name: name, help: help}
	in := r.lookup(d, func() instrument {
		return instrument{d: d, cf: &CounterFunc{d: d, fn: fn}}
	})
	if in.cf != nil && fn != nil {
		r.mu.Lock()
		in.cf.fn = fn
		r.mu.Unlock()
	}
	return in.cf
}

// GaugeFunc registers a scrape-time gauge evaluated through fn, replacing
// the callback on re-registration like CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	d := desc{name: name, help: help}
	in := r.lookup(d, func() instrument {
		return instrument{d: d, gf: &GaugeFunc{d: d, fn: fn}}
	})
	if in.gf != nil && fn != nil {
		r.mu.Lock()
		in.gf.fn = fn
		r.mu.Unlock()
	}
	return in.gf
}

// snapshotInstruments copies the instrument list under the lock so scraping
// iterates without holding it (callbacks may take their own locks).
func (r *Registry) snapshotInstruments() []instrument {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]instrument, 0, len(r.order))
	for _, key := range r.order {
		out = append(out, r.by[key])
	}
	return out
}

// families groups the registered instruments by family name, families in
// first-registration order and series within a family sorted by label value
// (stable exposition output).
func (r *Registry) families() [][]instrument {
	ins := r.snapshotInstruments()
	idx := make(map[string]int)
	var out [][]instrument
	for _, in := range ins {
		i, ok := idx[in.d.name]
		if !ok {
			i = len(out)
			idx[in.d.name] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], in)
	}
	for _, fam := range out {
		sort.Slice(fam, func(a, b int) bool { return fam[a].d.value < fam[b].d.value })
	}
	return out
}

// RegisterRuntime adds process-level gauges (goroutines, heap bytes, GC
// cycles and total pause) to r: the baseline any admin endpoint should
// expose even before a subsystem is instrumented. Heap bytes and GC cycles
// come from runtime/metrics, which does not stop the world; only the pause
// total still needs ReadMemStats, once per scrape.
func RegisterRuntime(r *Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("morph_go_goroutines", "Live goroutines.", func() int64 {
		return int64(runtime.NumGoroutine())
	})
	r.GaugeFunc("morph_go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		runtimeMetric("/memory/classes/heap/objects:bytes"))
	r.GaugeFunc("morph_go_gc_cycles_total", "Completed GC cycles.",
		runtimeMetric("/gc/cycles/total:gc-cycles"))
	r.GaugeFunc("morph_go_gc_pause_ns_total", "Cumulative GC stop-the-world pause.", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.PauseTotalNs)
	})
}

// runtimeMetric reads one uint64 runtime/metrics sample at scrape time.
func runtimeMetric(name string) func() int64 {
	return func() int64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
}
