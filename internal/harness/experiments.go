package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"morphstream/internal/baseline"
	"morphstream/internal/baseline/spe"
	"morphstream/internal/baseline/sstore"
	"morphstream/internal/baseline/tstream"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/telemetry"
	"morphstream/internal/workload"
)

// Scale shrinks the paper-sized workloads so experiments finish on small
// machines: transactions per batch and state size are multiplied by it.
// Scale 1.0 reproduces Table 6's defaults.
type Scale float64

func (s Scale) txns(n int) int {
	out := int(float64(n) * float64(s))
	if out < 64 {
		out = 64
	}
	return out
}

func (s Scale) states(n int) int {
	out := int(float64(n) * float64(s))
	if out < 32 {
		out = 32
	}
	return out
}

// Threads returns the default executor thread count (the paper pins one
// thread per core; we follow the host).
func Threads() int { return runtime.NumCPU() }

// Fig11 compares MorphStream against TStream, S-Store and the simulated
// Flink+Redis baselines on SL with the Table 6 defaults (paper Fig. 11:
// 176.67 / 110.88 / 47.19 / 14.10 / 1.48 k/s on 24 cores).
func Fig11(scale Scale, threads int) *Report {
	cfg := workload.DefaultSL()
	cfg.Txns = scale.txns(cfg.Txns)
	cfg.StateSize = scale.states(cfg.StateSize)
	cfg.Seed = 11
	b := workload.SL(cfg)

	systems := []baseline.System{
		NewMorph(),
		tstream.New(),
		sstore.New(),
		spe.New(false),
		spe.New(true),
	}
	warmup(systems, threads)
	r := &Report{
		Title:  "Fig.11 — Throughput on SL, default config",
		Header: []string{"system", "throughput(k/s)", "committed", "aborted"},
		Notes: []string{
			"paper shape: MorphStream > TStream (1.6x) > S-Store (3.7x) >> Flink+Redis",
			fmt.Sprintf("txns=%d states=%d threads=%d", cfg.Txns, cfg.StateSize, threads),
		},
	}
	for _, sys := range systems {
		res, elapsed := timedRun(sys, b, threads, nil)
		r.Rows = append(r.Rows, []string{
			sys.Name(), kps(cfg.Txns, elapsed),
			fmt.Sprint(res.Committed), fmt.Sprint(res.Aborted),
		})
	}
	return r
}

// Fig12 runs the four-phase dynamic workload (Section 8.2.2): per-batch
// throughput for adaptive MorphStream, TStream and S-Store, plus the
// end-to-end latency CDF of Fig. 12b.
func Fig12(scale Scale, threads int) *Report {
	base := workload.Config{
		Txns:      scale.txns(4096),
		StateSize: scale.states(4096),
		Seed:      12, ComplexityUS: 2,
	}
	batches := workload.Dynamic(base, workload.DynamicPhases(3))

	systems := []baseline.System{NewMorph(), tstream.New(), sstore.New()}
	r := &Report{
		Title:  "Fig.12 — Dynamic workload: throughput per batch + latency CDF",
		Header: []string{"batch", "phase", "MorphStream(k/s)", "decision", "TStream(k/s)", "S-Store(k/s)"},
		Notes: []string{
			"paper shape: MorphStream adapts per phase and stays on top; TStream drops in phase 4 (aborts)",
		},
	}
	morph := systems[0].(*MorphSystem)
	// Every event of a batch completes with the batch, and the batches are
	// equal-sized, so one sample per batch is the per-event distribution.
	latency := make([]telemetry.Histogram, len(systems))
	for _, db := range batches {
		row := []string{fmt.Sprint(db.Step), db.Phase}
		for i, sys := range systems {
			_, elapsed := timedRun(sys, db.Batch, threads, nil)
			latency[i].Record(int64(elapsed))
			row = append(row, kps(len(db.Specs), elapsed))
			if sys == systems[0] {
				row = append(row, morph.LastDecision().String())
			}
		}
		r.Rows = append(r.Rows, row)
	}
	for i, sys := range systems {
		lat := latency[i].Snapshot()
		r.Notes = append(r.Notes, fmt.Sprintf("latency CDF %s: p50=%s p90=%s p99=%s", sys.Name(),
			quantile(lat, 0.50, time.Microsecond), quantile(lat, 0.90, time.Microsecond), quantile(lat, 0.99, time.Microsecond)))
	}
	return r
}

// Fig13 compares nested per-group scheduling against the two plain
// strategies and the baselines on the two-group TP workload
// (Section 8.2.3; paper: nested 341.73, plain-1 302.70, plain-2 111.50,
// TStream 242.73, S-Store 117.41 k/s).
func Fig13(scale Scale, threads int) *Report {
	cfg := workload.DefaultTPGroups()
	cfg.Txns = scale.txns(cfg.Txns)
	cfg.StateSize = scale.states(cfg.StateSize)
	cfg.Seed = 13
	b := workload.TP(cfg)

	plain1 := sched.Decision{Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort}
	plain2 := sched.Decision{Explore: sched.SExploreBFS, Gran: sched.CSchedule, Abort: sched.EAbort}
	nested := &MorphSystem{
		Label: "Nested",
		GroupDecisions: map[int]sched.Decision{
			0: plain1, // skewed, aborty group: ns-explore + l-abort
			1: plain2, // uniform, clean group: s-explore + e-abort
		},
	}
	systems := []baseline.System{
		nested,
		NewMorphPinned(plain1, "Plain-1"),
		NewMorphPinned(plain2, "Plain-2"),
		tstream.New(),
		sstore.New(),
	}
	r := &Report{
		Title:  "Fig.13 — Single vs multiple (nested) scheduling strategies on TP",
		Header: []string{"system", "throughput(k/s)", "p95 latency", "aborted"},
		Notes:  []string{"paper shape: Nested > Plain-1 > TStream > S-Store ≈ Plain-2"},
	}
	for _, sys := range systems {
		// One batch: every event's latency is the batch's wall time.
		res, elapsed := timedRun(sys, b, threads, nil)
		r.Rows = append(r.Rows, []string{
			sys.Name(), kps(len(b.Specs), elapsed),
			fmt.Sprint(elapsed), fmt.Sprint(res.Aborted),
		})
	}
	return r
}

// Fig14 evaluates tumbling-window queries on GS (Section 8.2.4): part (a)
// sweeps the event-time window size, part (b) the window trigger period.
func Fig14(scale Scale, threads int) *Report {
	r := &Report{
		Title:  "Fig.14 — Tumbling window queries (GS + window reads)",
		Header: []string{"sweep", "value", "throughput(k/s)"},
		Notes: []string{
			"paper shape: larger windows cost up to ~30%; frequent triggers up to ~60%",
		},
	}
	base := workload.Config{
		Txns: scale.txns(102400), StateSize: scale.states(10000),
		Seed: 14, ComplexityUS: 0,
	}
	morph := NewMorph()
	for _, w := range []uint64{1000, 10000, 100000} {
		b := workload.GSWindow(workload.GSWindowConfig{
			Config: base, WindowSize: w, ReadEvery: 100, ReadKeys: 100,
		})
		_, elapsed := timedRun(morph, b, threads, nil)
		r.Rows = append(r.Rows, []string{"window-size", fmt.Sprint(w), kps(len(b.Specs), elapsed)})
	}
	for _, period := range []int{100, 1000, 10000} {
		b := workload.GSWindow(workload.GSWindowConfig{
			Config: base, WindowSize: 1000, ReadEvery: period, ReadKeys: 100,
		})
		_, elapsed := timedRun(morph, b, threads, nil)
		r.Rows = append(r.Rows, []string{"trigger-period", fmt.Sprint(period), kps(len(b.Specs), elapsed)})
	}
	return r
}

// Fig15 evaluates non-deterministic queries (Section 8.2.5): throughput of
// MorphStream, TStream and S-Store as the number of ND state accesses per
// batch grows. Paper shape: S-Store flat; MorphStream and TStream degrade.
func Fig15(scale Scale, threads int) *Report {
	r := &Report{
		Title:  "Fig.15 — Non-deterministic queries",
		Header: []string{"nd-accesses", "MorphStream(k/s)", "TStream(k/s)", "S-Store(k/s)"},
		Notes:  []string{"paper shape: S-Store flat; MorphStream/TStream degrade with ND count"},
	}
	base := workload.Config{
		Txns: scale.txns(10240), StateSize: scale.states(1000),
		Seed: 15, ComplexityUS: 0,
	}
	systems := []baseline.System{NewMorph(), tstream.New(), sstore.New()}
	warmup(systems, threads)
	for _, nd := range []int{200, 400, 600, 800, 1000} {
		ndScaled := int(float64(nd) * float64(scale))
		if ndScaled < 8 {
			ndScaled = 8
		}
		b := workload.GSND(workload.GSNDConfig{Config: base, NDAccesses: ndScaled})
		row := []string{fmt.Sprint(ndScaled)}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, threads, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig16a produces the execution-time breakdown of Section 8.3.1 for the
// three TSPEs on the dynamic workload.
func Fig16a(scale Scale, threads int) *Report {
	base := workload.Config{
		Txns: scale.txns(4096), StateSize: scale.states(4096),
		Seed: 16, ComplexityUS: 2,
	}
	batches := workload.Dynamic(base, workload.DynamicPhases(2))
	systems := []baseline.System{NewMorph(), tstream.New(), sstore.New()}

	header := []string{"system"}
	for _, c := range metrics.Categories() {
		header = append(header, c.String())
	}
	r := &Report{
		Title:  "Fig.16a — Runtime breakdown (dynamic workload)",
		Header: header,
		Notes: []string{
			"paper shape: MorphStream/TStream pay Construct but cut Sync/Lock vs S-Store;",
			"TStream has the largest Abort share (whole-batch redo)",
		},
	}
	for _, sys := range systems {
		bd := &metrics.Breakdown{}
		for _, db := range batches {
			sys.Run(db.Batch, threads, bd)
		}
		row := []string{sys.Name()}
		for _, c := range metrics.Categories() {
			row = append(row, bd.Get(c).Round(time.Millisecond).String())
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig16b tracks the memory footprint over time with clean-up disabled
// (Section 8.3.2): MorphStream and TStream grow (multi-version copies +
// auxiliary structures), S-Store stays flat.
func Fig16b(scale Scale, threads int) *Report {
	base := workload.Config{
		Txns: scale.txns(4096), StateSize: scale.states(4096),
		Seed: 17, ComplexityUS: 0,
	}
	batches := workload.Dynamic(base, workload.DynamicPhases(2))
	systems := []baseline.System{NewMorph(), tstream.New(), sstore.New()}

	r := &Report{
		Title:  "Fig.16b — Memory footprint over time (no clean-up)",
		Header: []string{"system", "samples", "peak-heap(MB)", "final-heap(MB)"},
		Notes:  []string{"paper shape: MorphStream ≈ 1.4x TStream; S-Store flat"},
	}
	for _, sys := range systems {
		runtime.GC()
		sampler := metrics.StartMemSampler(time.Millisecond)
		for _, db := range batches {
			sys.Run(db.Batch, threads, nil)
		}
		samples := sampler.Stop()
		var peak, final uint64
		for _, s := range samples {
			if s.HeapBytes > peak {
				peak = s.HeapBytes
			}
			final = s.HeapBytes
		}
		r.Rows = append(r.Rows, []string{
			sys.Name(), fmt.Sprint(len(samples)),
			fmt.Sprintf("%.1f", float64(peak)/1e6),
			fmt.Sprintf("%.1f", float64(final)/1e6),
		})
	}
	return r
}

// Fig17 measures the impact of clean-up under varying memory limits
// (Section 8.3.3). The paper varies the JVM heap (100–300 GB); we
// substitute Go's soft memory limit.
func Fig17(scale Scale, threads int) *Report {
	base := workload.Config{
		Txns: scale.txns(4096), StateSize: scale.states(4096),
		Seed: 18, ComplexityUS: 0,
	}
	batches := workload.Dynamic(base, workload.DynamicPhases(2))

	r := &Report{
		Title:  "Fig.17 — Clean-up impact under memory limits",
		Header: []string{"config", "throughput(k/s)", "peak-heap(MB)"},
		Notes: []string{
			"paper shape: enabling clean-up costs up to ~12.8%; tighter limits trigger GC cycles",
			"substitution: Go debug.SetMemoryLimit stands in for the JVM heap size",
		},
	}
	run := func(label string, cleanup bool, limit int64) {
		old := debug.SetMemoryLimit(-1)
		if limit > 0 {
			debug.SetMemoryLimit(limit)
		}
		defer debug.SetMemoryLimit(old)
		runtime.GC()
		sampler := metrics.StartMemSampler(time.Millisecond)
		morph := NewMorph()
		events := 0
		start := time.Now()
		for _, db := range batches {
			morph.Run(db.Batch, threads, nil)
			events += len(db.Specs)
			if cleanup {
				// The adapter materialises fresh tables per batch; the
				// clean-up cost is modelled by forcing a GC cycle, which
				// is what dropping the TPG + versions triggers.
				runtime.GC()
			}
		}
		elapsed := time.Since(start)
		samples := sampler.Stop()
		var peak uint64
		for _, s := range samples {
			if s.HeapBytes > peak {
				peak = s.HeapBytes
			}
		}
		r.Rows = append(r.Rows, []string{label, kps(events, elapsed), fmt.Sprintf("%.1f", float64(peak)/1e6)})
	}
	run("no-cleanup / no-limit", false, -1)
	run("cleanup / no-limit", true, -1)
	run("cleanup / 2GB limit", true, 2<<30)
	run("cleanup / 512MB limit", true, 512<<20)
	return r
}

// Fig18 ablates the exploration-strategy dimension on GS (Section 8.4.1):
// (a) punctuation-interval sweep at low skew, (b) skew sweep at high
// punctuation interval, for ns-explore vs s-explore(BFS) vs s-explore(DFS).
func Fig18(scale Scale, threads int) *Report {
	r := &Report{
		Title:  "Fig.18 — Exploration strategy decision (GS)",
		Header: []string{"sweep", "value", "ns-explore(k/s)", "s-BFS(k/s)", "s-DFS(k/s)"},
		Notes: []string{
			"paper shape: ns wins at low punctuation/high skew; s wins at high punctuation/uniform",
		},
	}
	mk := func(e sched.Explore) *MorphSystem {
		return NewMorphPinned(sched.Decision{Explore: e, Gran: sched.FSchedule, Abort: sched.EAbort}, "")
	}
	systems := []*MorphSystem{mk(sched.NSExplore), mk(sched.SExploreBFS), mk(sched.SExploreDFS)}
	warmup([]baseline.System{systems[0], systems[1], systems[2]}, threads)

	for _, punc := range []int{5120, 10240, 20480, 40960, 81920} {
		cfg := workload.Config{
			Txns: scale.txns(punc), StateSize: scale.states(10000),
			Theta: 0.1, Seed: 19, ComplexityUS: 0, MultiRatio: 0.2,
		}
		b := workload.GS(cfg)
		row := []string{"punctuation", fmt.Sprint(cfg.Txns)}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, threads, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	for _, theta := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := workload.Config{
			Txns: scale.txns(40960), StateSize: scale.states(10000),
			Theta: theta, Seed: 20, ComplexityUS: 0, MultiRatio: 0.2,
		}
		b := workload.GS(cfg)
		row := []string{"zipf-skew", fmt.Sprintf("%.2f", theta)}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, threads, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig19 ablates the scheduling-granularity dimension (Section 8.4.2):
// cyclic vs acyclic dependencies, punctuation-interval sweep, and the
// ratio of multi-state accesses, for f-schedule vs c-schedule.
func Fig19(scale Scale, threads int) *Report {
	r := &Report{
		Title:  "Fig.19 — Scheduling granularity decision (GS)",
		Header: []string{"sweep", "value", "f-schedule(k/s)", "c-schedule(k/s)"},
		Notes: []string{
			"paper shape: c wins acyclic/TD-heavy; f wins under cycles or many PDs",
		},
	}
	mk := func(g sched.Granularity) *MorphSystem {
		return NewMorphPinned(sched.Decision{Explore: sched.NSExplore, Gran: g, Abort: sched.EAbort}, "")
	}
	systems := []*MorphSystem{mk(sched.FSchedule), mk(sched.CSchedule)}
	warmup([]baseline.System{systems[0], systems[1]}, threads)

	// (a) cyclic vs acyclic: multi-source writes across keys create
	// cross-chain cycles; single-source self-writes cannot.
	for _, mr := range []struct {
		label string
		ratio float64
	}{{"cyclic", 0.8}, {"acyclic", 0}} {
		cfg := workload.Config{
			Txns: scale.txns(10240), StateSize: scale.states(1000),
			Theta: 0.3, Seed: 21, ComplexityUS: 0, MultiRatio: mr.ratio,
		}
		b := workload.GS(cfg)
		row := []string{"dependencies", mr.label}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, threads, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	// (b) punctuation interval sweep with single state access (no PDs).
	for _, punc := range []int{5120, 10240, 20480, 40960, 81920} {
		cfg := workload.Config{
			Txns: scale.txns(punc), StateSize: scale.states(1000),
			Theta: 0.3, Seed: 22, ComplexityUS: 0, MultiRatio: 0,
		}
		b := workload.GS(cfg)
		row := []string{"punctuation", fmt.Sprint(cfg.Txns)}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, threads, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	// (c) ratio of multiple state accesses (controls PDs).
	for _, ratio := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := workload.Config{
			Txns: scale.txns(10240), StateSize: scale.states(1000),
			Theta: 0.3, Seed: 23, ComplexityUS: 0, MultiRatio: ratio,
		}
		b := workload.GS(cfg)
		row := []string{"multi-access", fmt.Sprintf("%.0f%%", ratio*100)}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, threads, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig20 ablates the abort-handling dimension (Section 8.4.3): UDF
// complexity sweep at a high abort ratio, and abort-ratio sweep at low
// complexity, for e-abort vs l-abort.
func Fig20(scale Scale, threads int) *Report {
	r := &Report{
		Title:  "Fig.20 — Abort handling decision (GS)",
		Header: []string{"sweep", "value", "e-abort(k/s)", "l-abort(k/s)"},
		Notes: []string{
			"paper shape: l-abort wins cheap+aborty; e-abort wins expensive UDFs / rare aborts",
		},
	}
	mk := func(a sched.AbortMode) *MorphSystem {
		return NewMorphPinned(sched.Decision{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: a}, "")
	}
	systems := []*MorphSystem{mk(sched.EAbort), mk(sched.LAbort)}
	warmup([]baseline.System{systems[0], systems[1]}, threads)

	for _, comp := range []int{0, 25, 50, 75, 100} {
		cfg := workload.Config{
			Txns: scale.txns(10240), StateSize: scale.states(1000),
			Theta: 0.3, Seed: 24, ComplexityUS: comp, AbortRatio: 0.4, MultiRatio: 0.2,
		}
		b := workload.GS(cfg)
		row := []string{"complexity(us)", fmt.Sprint(comp)}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, threads, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	for _, ratio := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := workload.Config{
			Txns: scale.txns(10240), StateSize: scale.states(1000),
			Theta: 0.3, Seed: 25, ComplexityUS: 0, AbortRatio: ratio, MultiRatio: 0.2,
		}
		b := workload.GS(cfg)
		row := []string{"abort-ratio", fmt.Sprintf("%.0f%%", ratio*100)}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, threads, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig21a substitutes the VTune micro-architectural analysis (Section 8.5)
// with runtime proxies: process CPU ticks approximated by wall x threads,
// allocation volume, GC cycles and the measured sync/lock share.
func Fig21a(scale Scale, threads int) *Report {
	cfg := workload.DefaultSL()
	cfg.Txns = scale.txns(cfg.Txns)
	cfg.StateSize = scale.states(cfg.StateSize)
	cfg.Seed = 26
	b := workload.SL(cfg)

	r := &Report{
		Title:  "Fig.21a — Micro-architectural proxy analysis (SL)",
		Header: []string{"system", "elapsed", "alloc(MB)", "mallocs(k)", "gc-cycles", "sync+lock share"},
		Notes: []string{
			"paper shape: MorphStream spends up to 2.3x fewer clock ticks than TStream/S-Store;",
			"substitution: runtime counters stand in for VTune top-down metrics",
		},
	}
	for _, sys := range []baseline.System{NewMorph(), tstream.New(), sstore.New()} {
		bd := &metrics.Breakdown{}
		runtime.GC()
		before := metrics.ReadCPUTicksProxy()
		_, elapsed := timedRun(sys, b, threads, bd)
		delta := metrics.ReadCPUTicksProxy().Delta(before)
		share := 0.0
		if tot := bd.Total(); tot > 0 {
			share = float64(bd.Get(metrics.Sync)+bd.Get(metrics.Lock)) / float64(tot)
		}
		r.Rows = append(r.Rows, []string{
			sys.Name(), elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(delta.AllocBytes)/1e6),
			fmt.Sprintf("%d", delta.Mallocs/1000),
			fmt.Sprint(delta.GCCycles),
			fmt.Sprintf("%.1f%%", share*100),
		})
	}
	return r
}

// Fig21b sweeps the executor thread count on SL (Section 8.5 multicore
// scalability). On a single-core host the curves flatten; the relative
// ordering of the systems is the reproducible signal.
func Fig21b(scale Scale, maxThreads int) *Report {
	cfg := workload.DefaultSL()
	cfg.Txns = scale.txns(cfg.Txns)
	cfg.StateSize = scale.states(cfg.StateSize)
	cfg.Seed = 27
	b := workload.SL(cfg)

	r := &Report{
		Title:  "Fig.21b — Scalability: throughput vs thread count (SL)",
		Header: []string{"threads", "MorphStream(k/s)", "TStream(k/s)", "S-Store(k/s)"},
		Notes: []string{
			"paper shape: MorphStream scales past both baselines; at 1-2 cores S-Store can win",
			fmt.Sprintf("host has %d CPU core(s): scaling flattens beyond that", runtime.NumCPU()),
		},
	}
	systems := []baseline.System{NewMorph(), tstream.New(), sstore.New()}
	warmup(systems, 2)
	for t := 1; t <= maxThreads; t *= 2 {
		row := []string{fmt.Sprint(t)}
		for _, sys := range systems {
			_, elapsed := timedRun(sys, b, t, nil)
			row = append(row, kps(len(b.Specs), elapsed))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}
