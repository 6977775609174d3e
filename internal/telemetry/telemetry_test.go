package telemetry

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "h")
	h := r.Histogram("h", "h")
	cf := r.CounterFunc("cf", "h", func() int64 { return 7 })
	gf := r.GaugeFunc("gf", "h", func() int64 { return 7 })
	if c != nil || h != nil || cf != nil || gf != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	// Every mutation and read on nil instruments must be a no-op, not a panic.
	c.Inc()
	c.Add(5)
	h.Record(10)
	if c.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if cf.Value() != 0 || gf.Value() != 0 {
		t.Fatal("nil func instruments must read zero")
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry WriteProm: %q err=%v", sb.String(), err)
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry Snapshot: %v", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	l1 := r.CounterL("y_total", "h", "type", "submit")
	l2 := r.CounterL("y_total", "h", "type", "submit")
	l3 := r.CounterL("y_total", "h", "type", "receipt")
	if l1 != l2 {
		t.Fatal("same (name,label) must return the same series")
	}
	if l1 == l3 {
		t.Fatal("distinct label values must be distinct series")
	}
	h1 := r.Histogram("z_ns", "h")
	h2 := r.Histogram("z_ns", "h")
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		// Values up to 16 get one exact bucket each (0 and 1 share bucket 0).
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}, {8, 7},
		{9, 8}, {16, 15},
		// Octave (16,32]: width-2 sub-buckets.
		{17, 16}, {18, 16}, {19, 17}, {32, 23}, {33, 24},
		// Octave (1024,2048]: sub-bucket j covers (1024+128j, 1024+128(j+1)].
		{1024, 63}, {1025, 64}, {1152, 64}, {1153, 65}, {2048, 71}, {2049, 72},
	}
	for _, c := range cases {
		v := c.v
		if v < 0 {
			v = 0 // Record clamps before bucketing
		}
		if got := bucketOf(v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every sub-bucket boundary 2^k*(1+j/8): the bound itself closes bucket
	// j-1 (or the previous octave), bound+1 opens bucket j, the octave index
	// is the parent's power-of-two bucket, and bucketBound inverts bucketOf.
	for k := 4; k < numOctaves-2; k++ {
		for j := 0; j < subPerOctave; j++ {
			lo := int64(1)<<k + int64(j)<<(k-subBits)
			b := bucketOf(lo + 1)
			if prev := bucketOf(lo); prev != b-1 {
				t.Errorf("k=%d j=%d: bucketOf(%d)=%d, bucketOf(%d)=%d; want adjacent", k, j, lo, prev, lo+1, b)
			}
			if got := octaveOf(b); got != k+1 {
				t.Errorf("octaveOf(bucketOf(%d)) = %d, want %d", lo+1, got, k+1)
			}
			hi := lo + int64(1)<<(k-subBits)
			if got := bucketBound(b); got != hi || bucketOf(hi) != b {
				t.Errorf("k=%d j=%d: bound=%d bucketOf(%d)=%d; want %d/%d", k, j, got, hi, bucketOf(hi), hi, b)
			}
		}
	}
	// Beyond the last finite octave (2^39) everything overflows.
	if got := bucketOf(int64(1) << 39); got != numBuckets-2 {
		t.Errorf("bucketOf(2^39) = %d, want last finite %d", got, numBuckets-2)
	}
	for _, v := range []int64{1<<39 + 1, 1 << 62, math.MaxInt64} {
		if got := bucketOf(v); got != numBuckets-1 {
			t.Errorf("bucketOf(%d) = %d, want overflow %d", v, got, numBuckets-1)
		}
	}
}

func TestHistogramExactTotals(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "h")
	var wantSum int64
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
		wantSum += i
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != wantSum {
		t.Fatalf("count=%d sum=%d, want 1000/%d", s.Count, s.Sum, wantSum)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	if q := s.Quantile(0.5); q != 512 { // sorted[500] = 501, sub-bucket (480,512]
		t.Fatalf("p50 of 1..1000 = %d, want 512", q)
	}
	if q := s.Quantile(0.99); q != 1024 { // sorted[990] = 991, sub-bucket (960,1024]
		t.Fatalf("p99 of 1..1000 = %d, want 1024", q)
	}
}

// TestQuantileAccuracy is the resolution contract harness percentiles rely
// on: over 1e5 log-uniform samples spanning 1ns..10s, every quantile read off
// the buckets is at least the exact order statistic and at most 12.5% above.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 100000
	var h Histogram // zero value, no registry
	samples := make([]int64, n)
	for i := range samples {
		samples[i] = int64(math.Exp(rng.Float64() * math.Log(10e9)))
		h.Record(samples[i])
	}
	slices.Sort(samples)
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := samples[int(q*n)]
		got := s.Quantile(q)
		if got < exact || float64(got) > 1.125*float64(exact) {
			t.Errorf("Quantile(%v) = %d, exact %d: outside [exact, 1.125*exact]", q, got, exact)
		}
	}
}

// TestQuantileEdges: an empty histogram reads 0 and q clamps to [0,1]
// (negative, NaN and >1 included) instead of indexing out of range.
func TestQuantileEdges(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	for _, v := range []int64{10, 20, 30} {
		h.Record(v)
	}
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, math.NaN()} {
		if got := s.Quantile(q); got != 10 {
			t.Errorf("Quantile(%v) = %d, want the minimum 10", q, got)
		}
	}
	for _, q := range []float64{1, 250, math.Inf(1)} {
		if got := s.Quantile(q); got != 30 {
			t.Errorf("Quantile(%v) = %d, want the maximum 30", q, got)
		}
	}
}

// TestConcurrentMutationVsScrape floods counters and histograms from many
// goroutines while a scraper loops over Value/Snapshot/WriteProm, asserting
// every observed value is monotonic (no tearing, no going backwards) and the
// final totals are exact. Run under -race in CI.
func TestConcurrentMutationVsScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	h := r.Histogram("lat_ns", "latency")

	const workers = 8
	const perWorker = 5000

	var mutators, scraper sync.WaitGroup
	stop := make(chan struct{})

	// Scraper: watches for non-monotonic counter reads and torn histograms.
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		var lastC, lastN, lastS int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.Value(); v < lastC {
				t.Errorf("counter went backwards: %d -> %d", lastC, v)
				return
			} else {
				lastC = v
			}
			s := h.Snapshot()
			if s.Count < lastN || s.Sum < lastS {
				t.Errorf("histogram went backwards: count %d->%d sum %d->%d", lastN, s.Count, lastS, s.Sum)
				return
			}
			lastN, lastS = s.Count, s.Sum
			var bucketTotal int64
			for _, b := range s.Buckets {
				bucketTotal += b
			}
			// Writers hit their bucket before count, and Snapshot reads
			// count before buckets, so a racing snapshot may over-read
			// buckets but can never show fewer bucketed observations than
			// counted ones — an under-read would be a torn read.
			if bucketTotal < s.Count {
				t.Errorf("bucket total %d < count %d: torn read", bucketTotal, s.Count)
				return
			}
			var sb strings.Builder
			_ = r.WriteProm(&sb)
			_ = r.Snapshot()
		}
	}()

	for w := 0; w < workers; w++ {
		mutators.Add(1)
		go func() {
			defer mutators.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				h.Record(int64(i%4096) + 1)
			}
		}()
	}

	mutators.Wait()
	close(stop)
	scraper.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("final counter %d, want %d", got, workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("final histogram count %d, want %d", s.Count, workers*perWorker)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("final bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("morph_ops_total", "Total ops.").Add(42)
	r.GaugeFunc("morph_depth", "Ring depth.", func() int64 { return 7 })
	r.CounterL("morph_frames_total", "Frames by type.", "type", "submit").Add(3)
	r.CounterL("morph_frames_total", "Frames by type.", "type", "receipt").Add(9)
	h := r.Histogram("morph_lat_ns", "Latency.")
	h.Record(1)
	h.Record(100)
	h.Record(1000)
	r.GaugeFunc("morph_live", "Live.", func() int64 { return 5 })

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wants := []string{
		"# HELP morph_ops_total Total ops.",
		"# TYPE morph_ops_total counter",
		"morph_ops_total 42",
		"# TYPE morph_depth gauge",
		"morph_depth 7",
		"# TYPE morph_frames_total counter",
		"morph_frames_total{type=\"receipt\"} 9",
		"morph_frames_total{type=\"submit\"} 3",
		"# TYPE morph_lat_ns histogram",
		"morph_lat_ns_bucket{le=\"1\"} 1",
		"morph_lat_ns_bucket{le=\"128\"} 2",
		"morph_lat_ns_bucket{le=\"1024\"} 3",
		"morph_lat_ns_bucket{le=\"+Inf\"} 3",
		"morph_lat_ns_sum 1101",
		"morph_lat_ns_count 3",
		"morph_live 5",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The mandatory +Inf line appears once, empty overflow bucket or not.
	if n := strings.Count(out, `morph_lat_ns_bucket{le="+Inf"}`); n != 1 {
		t.Errorf("want 1 +Inf bucket line, got %d", n)
	}
	// Exactly one HELP header per family even with multiple series.
	if n := strings.Count(out, "# HELP morph_frames_total"); n != 1 {
		t.Errorf("want 1 family header for morph_frames_total, got %d", n)
	}
	// receipt sorts before submit within the family.
	if strings.Index(out, `type="receipt"`) > strings.Index(out, `type="submit"`) {
		t.Error("labelled series not sorted by label value")
	}
}

// TestWritePromHistogramGolden pins the histogram exposition to the output
// the power-of-two-only histogram produced for the same input: sub-buckets
// are an internal resolution, the le set scrapers see did not move.
func TestWritePromHistogramGolden(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramL("morph_lat_ns", "Latency.", "op", "x")
	for _, v := range []int64{-4, 0, 1, 2, 3, 5, 8, 9, 100, 1000, 1023, 1024, 1025, 1 << 20, 1 << 39, 1<<39 + 1, 1 << 50} {
		h.Record(v)
	}
	const want = `# HELP morph_lat_ns Latency.
# TYPE morph_lat_ns histogram
morph_lat_ns_bucket{op="x",le="1"} 3
morph_lat_ns_bucket{op="x",le="2"} 4
morph_lat_ns_bucket{op="x",le="4"} 5
morph_lat_ns_bucket{op="x",le="8"} 7
morph_lat_ns_bucket{op="x",le="16"} 8
morph_lat_ns_bucket{op="x",le="128"} 9
morph_lat_ns_bucket{op="x",le="1024"} 12
morph_lat_ns_bucket{op="x",le="2048"} 13
morph_lat_ns_bucket{op="x",le="1048576"} 14
morph_lat_ns_bucket{op="x",le="549755813888"} 15
morph_lat_ns_bucket{op="x",le="+Inf"} 17
morph_lat_ns_sum{op="x"} 1126999419523177
morph_lat_ns_count{op="x"} 17
`
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("exposition moved:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h").Add(10)
	h := r.Histogram("b_ns", "h")
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	samples := r.Snapshot()
	if len(samples) != 2 {
		t.Fatalf("want 2 samples, got %d", len(samples))
	}
	if samples[0].Name != "a_total" || samples[0].Kind != "counter" || samples[0].Value != 10 {
		t.Fatalf("counter sample: %+v", samples[0])
	}
	hs := samples[1]
	if hs.Kind != "histogram" || hs.Count != 100 || hs.Sum != 5050 || hs.P50 == 0 {
		t.Fatalf("histogram sample: %+v", hs)
	}
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "morph_go_goroutines") {
		t.Fatalf("runtime gauges missing:\n%s", sb.String())
	}
	RegisterRuntime(nil) // must not panic
}

// TestRuntimeGaugesReadRuntimeMetrics: the GC cycle gauge must rise across
// a forced collection, and the heap gauge must read a live heap.
func TestRuntimeGaugesReadRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	read := func(name string) int64 {
		for _, s := range r.Snapshot() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("%s not registered", name)
		return 0
	}
	before := read("morph_go_gc_cycles_total")
	runtime.GC()
	if after := read("morph_go_gc_cycles_total"); after <= before {
		t.Fatalf("gc cycles %d -> %d across runtime.GC(); want a rise", before, after)
	}
	if heap := read("morph_go_heap_alloc_bytes"); heap <= 0 {
		t.Fatalf("heap bytes = %d; want > 0", heap)
	}
}

func BenchmarkTelemetryInstruments(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "h")
	h := r.Histogram("bench_ns", "h")
	var nilC *Counter
	var nilH *Histogram

	b.Run("counter-inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("histogram-record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Record(int64(i))
		}
	})
	b.Run("nil-counter-inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilC.Add(1)
		}
	})
	b.Run("nil-histogram-record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilH.Record(int64(i))
		}
	})
	b.Run("scrape-merge", func(b *testing.B) {
		var sb strings.Builder
		for i := 0; i < b.N; i++ {
			sb.Reset()
			_ = r.WriteProm(&sb)
		}
	})
}
