package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameStream(t *testing.T) {
	hashes := map[string]uint64{}
	for _, w := range workloads {
		a, b, c := streamHash(genStreams(w, 7)), streamHash(genStreams(w, 7)), streamHash(genStreams(w, 8))
		if a != b {
			t.Errorf("%s: seed 7 gave stream hashes %x and %x", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream hash %x", w.Name, a)
		}
		hashes[w.Name] = a
	}
	if hashes["sl-uniform-wal"] != hashes["sl-uniform"] {
		t.Error("sl-uniform-wal must replay sl-uniform's stream byte for byte")
	}
}

func TestHistogramWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := &hist{}
	sample := make([]float64, 200000)
	for i := range sample {
		// Log-normal around 1 ms with a heavy tail, like a latency sample.
		v := int64(math.Exp(rng.NormFloat64()*1.5) * 1e6)
		sample[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(sample)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := sample[int(math.Ceil(q*float64(len(sample))))-1]
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%.3f = %.0f, exact %.0f", q, got, exact)
		}
	}
	if got, want := h.beyond(0.99), int64(2000); got != want {
		t.Errorf("beyond(0.99) = %d, want %d", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestWindowRatesAreNotQuantised(t *testing.T) {
	// One batch of 1,000 events every 0.3 s is 3,333 events/s in every
	// window, though a 1-s window holds 3 or 4 deliveries.
	var tl []step
	for i := int64(1); i <= 40; i++ {
		tl = append(tl, step{At: i * 300e6, End: i * 1000})
	}
	for k, r := range windowRates([][]step{tl}, 1e9, 11e9, 1e9) {
		if math.Abs(r-1000/0.3) > 1 {
			t.Errorf("window %d: %.1f events/s", k, r)
		}
	}
}

// An open loop against a sink that stalls once for 100 ms must show the
// stall in the latency of every event that was due meanwhile, measured from
// its due time, and in the generator's lateness — not in one slow call only.
func TestPacerCountsTheWaitAStallImposes(t *testing.T) {
	const interval = 100e3 // 10,000 events/s
	var tl []step
	n := int64(0)
	start := time.Now()
	sc := schedule{Start: int64(start.Sub(epoch)), Interval: interval}
	var lag *hist
	sc.Sent, lag = pace(start, interval, 400*time.Millisecond, func() {
		if n == 1000 {
			time.Sleep(100 * time.Millisecond)
		}
		n++
		tl = append(tl, step{nowNS(), n})
	}, nil)
	if sc.Sent < 3900 {
		t.Fatalf("sent %d events of 4000: the pacer skipped some", sc.Sent)
	}
	windows, missing := latencies(tl, sc, int64(time.Second))
	if missing != 0 || len(windows) != 1 {
		t.Fatalf("missing %d, %d windows", missing, len(windows))
	}
	// About a quarter of the events were due during the stall, waiting
	// 100 ms down to nothing: the top tenth waited over 60 ms.
	if p90 := windows[0].quantile(0.9) / 1e6; p90 < 50 {
		t.Errorf("latency p90 = %.1f ms: the stall is missing from the latencies", p90)
	}
	if p99 := lag.quantile(0.99) / 1e6; p99 < 80 {
		t.Errorf("generator lag p99 = %.1f ms: the stall is missing from the lag", p99)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	tr := &tracer{}
	tr.add("batch", "", 1, 0, 100)
	tr.add("ingest", "batch", 1, 10, 30)
	tr.add("ingest", "batch", 1, 20, 50) // overlaps the first: covers 10..50 together
	tr.add("ingest", "batch", 2, 0, 100) // another batch's child does not count
	self := tr.selfTimes()
	if self["batch"] != 60 {
		t.Errorf("batch self time = %v, want 60", self["batch"])
	}
}

// runEvents drives n events of a workload through a real engine.
func runEvents(t *testing.T, w workload, n int64) *engineRun {
	t.Helper()
	stream := interleave(genStreams(w, 3))
	r, err := startEngine(w, stream, keyNames(w), engineOptions{threads: engineThreads, walDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.close() })
	if err := r.closedLoop(n, 0); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEngineMatchesOracle(t *testing.T) {
	for _, w := range workloads {
		if w.Kind == kindRPC {
			continue // needs the morphserve binary; the benchmark run itself checks it
		}
		t.Run(w.Name, func(t *testing.T) {
			r := runEvents(t, w, 4096)
			o, flags := expect(w, r.stream, 4096)
			if err := r.check(o, flags); err != nil {
				t.Error(err)
			}
			aborts := 0
			for _, a := range flags {
				if a {
					aborts++
				}
			}
			if got := float64(aborts) / 4096; math.Abs(got-w.AbortRatio) > 0.5*w.AbortRatio {
				t.Errorf("abort ratio %.3f, workload says %.3f", got, w.AbortRatio)
			}
			if w.WAL && r.undurable() != 0 {
				t.Errorf("%d events delivered without a durable batch", r.undurable())
			}
		})
	}
}

func TestOneWrongBalanceFailsTheWholeRun(t *testing.T) {
	w, _ := findWorkload("gs-hot-abort")
	r := runEvents(t, w, 2048)
	o, flags := expect(w, r.stream, 2048)
	o.val[5]++
	err := r.check(o, flags)
	if err == nil {
		t.Fatal("a corrupted expected balance went unnoticed")
	}
	m := measurement{}
	m.settle(2048, 0, err)
	if m.Correct || m.Failed != 2048 {
		t.Errorf("after an oracle mismatch: correct=%v failed=%d of 2048", m.Correct, m.Failed)
	}
}

// The end-to-end path must survive any refactor of the internals: only
// benchmark/probe, behind its build tag, may import them.
func TestOnlyTheProbesImportInternals(t *testing.T) {
	for _, tags := range []string{"", "probes"} {
		out, err := exec.Command("go", "list", "-tags", tags, "-f", `{{join .Imports "\n"}}`, ".").CombinedOutput()
		if err != nil {
			t.Fatalf("go list: %v\n%s", err, out)
		}
		for _, imp := range strings.Fields(string(out)) {
			if strings.HasPrefix(imp, "morphstream/internal") {
				t.Errorf("package main (tags %q) imports %s", tags, imp)
			}
		}
	}
}

// BENCHMARK.json is the benchmark's contract; the program must print exactly
// what it declares.
func TestBenchmarkJSONAgreesWithTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []declared `json:"end_to_end"`
		PerLayer   []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []declared, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d in the program", kind, len(got), len(want))
		}
		for _, m := range got {
			if unit, ok := want[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %q (%s): the program has unit %q, known=%v", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, layerUnits)
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound || maxBound > 0.25 {
		t.Errorf("setup_s bound %.2f, largest bound %.2f (at most 0.25, and setup_s has the largest)", setupBound, maxBound)
	}
	// The driver makes 4 + 22 x workloads runs inside 3,420 s, builds included.
	runs := 4 + 22*len(workloads)
	if perRun := float64(spec.RunSeconds) + 8; float64(runs)*perRun > 3420-240 {
		t.Errorf("%d runs of about %.0f s do not fit the driver's 3,420 s", runs, perRun)
	}
}
