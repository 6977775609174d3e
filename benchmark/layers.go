package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"morphstream"
)

// layerUnits names every per-layer metric of the traced run with its unit.
// A metric that does not apply to a workload reads 0; one whose layer probe
// did not build reads -1.
var layerUnits = map[string]string{
	"rpcserve.codec_ns_per_event":     "ns",
	"rpcserve.bytes_per_event":        "bytes",
	"rpcserve.frames_per_event":       "count",
	"rpcserve.wire_ratio":             "ratio",
	"engine.ingest_ns_per_event":      "ns",
	"engine.ingest_stalls_per_kevent": "count",
	"engine.plan_busy_share":          "ratio",
	"engine.exec_busy_share":          "ratio",
	"engine.overlap_ratio":            "ratio",
	"engine.unattributed_share":       "ratio",
	"tpg.build_ns_per_op":             "ns",
	"tpg.nodes_per_event":             "count",
	"tpg.edges_per_op":                "count",
	"tpg.fused_ratio":                 "ratio",
	"sched.decide_ns_per_batch":       "ns",
	"sched.dominant_decision_share":   "ratio",
	"exec.run_ns_per_op":              "ns",
	"exec.useful_share":               "ratio",
	"exec.sync_share":                 "ratio",
	"exec.explore_share":              "ratio",
	"exec.abort_share":                "ratio",
	"exec.redo_ratio":                 "ratio",
	"exec.abort_rounds_per_batch":     "count",
	"exec.steals_per_kop":             "count",
	"exec.parks_per_batch":            "count",
	"exec.scaling_2t":                 "ratio",
	"store.preload_ns_per_key":        "ns",
	"store.sweep_ns_per_dirty_key":    "ns",
	"store.truncate_us_per_batch":     "us",
	"store.heap_bytes_per_key":        "bytes",
	"wal.encode_append_ns_per_key":    "ns",
	"wal.fsync_ms_p50":                "ms",
	"wal.bytes_per_event":             "bytes",
	"wal.net_commit_ratio":            "ratio",
	"wal.sink_calls_per_s":            "1/s",
	"wal.snapshot_base_ms":            "ms",
	"wal.snapshot_diff_ms":            "ms",
	"wal.commit_share":                "ratio",
	"proc.allocs_per_event":           "count",
	"proc.alloc_bytes_per_event":      "bytes",
	"proc.gc_pause_ms":                "ms",
	"proc.peak_rss_mb":                "MB",
	"proc.cpu_s_per_mevent":           "s",
	"trace.throughput_eps":            "events/s",
	"trace.latency_self_ms_per_batch": "ms",
	"trace.ingest_self_ms_per_batch":  "ms",
}

// probeMetrics are the per-layer metrics that come from benchmark/probe.
var probeMetrics = []string{
	"rpcserve.codec_ns_per_event", "rpcserve.bytes_per_event",
	"tpg.build_ns_per_op", "sched.decide_ns_per_batch",
	"exec.run_ns_per_op", "exec.useful_share", "exec.sync_share", "exec.explore_share", "exec.abort_share",
	"store.preload_ns_per_key", "store.sweep_ns_per_dirty_key", "store.truncate_us_per_batch", "store.heap_bytes_per_key",
	"wal.encode_append_ns_per_key", "wal.net_commit_ratio", "wal.snapshot_base_ms", "wal.snapshot_diff_ms",
	"engine.unattributed_share",
}

// counters is one reading of what the engine exports about itself, read
// in-process (PipelineStats, a registry snapshot) or from a morphserve
// child's admin endpoint (/statusz, /metrics).
type counters struct {
	at     time.Time
	stats  morphstream.PipelineStats
	series map[string]float64 // telemetry series, "name" or "name{label=value}"
}

func readEngine(eng *morphstream.Engine, reg *morphstream.TelemetryRegistry) counters {
	c := counters{at: time.Now(), stats: eng.PipelineStats(), series: map[string]float64{}}
	for _, s := range reg.Snapshot() {
		name := s.Name
		if s.Label != "" {
			name += "{" + s.Label + "}"
		}
		if s.Kind == "histogram" {
			c.series[name+"_count"] = float64(s.Count)
			c.series[name+"_sum"] = float64(s.Sum)
			c.series[name+"_p50"] = float64(s.P50)
		} else {
			c.series[name] = float64(s.Value)
		}
	}
	return c
}

func readServer(admin string) (counters, error) {
	c := counters{at: time.Now(), series: map[string]float64{}}
	var status struct {
		Pipeline morphstream.PipelineStats `json:"pipeline"`
	}
	body, err := httpGet("http://" + admin + "/statusz")
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(body, &status); err != nil {
		return c, fmt.Errorf("/statusz: %w", err)
	}
	c.stats = status.Pipeline
	body, err = httpGet("http://" + admin + "/metrics")
	if err != nil {
		return c, err
	}
	// Prometheus text: `name{label="value"} number`, comments start with #.
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			c.series[strings.ReplaceAll(line[:i], `"`, "")] = v
		}
	}
	return c, nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns two readings around a phase into the per-layer
// metrics the engine's own counters support.
func counterMetrics(before, after counters, out map[string]float64) {
	wall := float64(after.at.Sub(before.at))
	a, b := after.stats, before.stats
	events := float64(a.Events - b.Events)
	batches := float64(a.Batches - b.Batches)
	ops := float64(a.OpsExecuted - b.OpsExecuted)
	delta := func(name string) float64 { return after.series[name] - before.series[name] }

	out["engine.ingest_stalls_per_kevent"] = ratio(float64(a.IngestStalls-b.IngestStalls), events/1000)
	out["engine.plan_busy_share"] = ratio(float64(a.PlanBusy-b.PlanBusy), wall)
	out["engine.exec_busy_share"] = ratio(float64(a.ExecBusy-b.ExecBusy), wall)
	out["engine.overlap_ratio"] = ratio(float64(a.Overlap-b.Overlap), float64(a.ExecBusy-b.ExecBusy))
	out["exec.redo_ratio"] = ratio(float64(a.Redos-b.Redos), ops)
	out["exec.abort_rounds_per_batch"] = ratio(float64(a.AbortRounds-b.AbortRounds), batches)
	out["exec.steals_per_kop"] = ratio(float64(a.Steals-b.Steals), ops/1000)
	out["exec.parks_per_batch"] = ratio(float64(a.Parks-b.Parks), batches)
	out["wal.commit_share"] = ratio(float64(a.CommitElapsed-b.CommitElapsed), float64(a.ExecElapsed-b.ExecElapsed))
	out["wal.bytes_per_event"] = ratio(delta("morph_wal_bytes_total"), events)
	out["wal.fsync_ms_p50"] = after.series["morph_wal_fsync_ns_p50"] / 1e6
	out["wal.sink_calls_per_s"] = ratio(delta("morph_wal_appends_total")+delta("morph_wal_snapshots_base_total")+delta("morph_wal_snapshots_diff_total"), wall/1e9)
	out["rpcserve.frames_per_event"] = ratio(delta("morph_rpc_frames_in_total{type=submit}")+delta("morph_rpc_frames_out_total{type=receipt}"), events)
	// What the engine's stages report per event (ExecElapsed contains the
	// commit hook); the probes' attributed time is set against it.
	out["engine.stage_ns_per_event"] = ratio(float64(a.PlanElapsed-b.PlanElapsed+a.ExecElapsed-b.ExecElapsed), events)
}

// propsMetrics derives the planner's and scheduler's counts from the batch
// results themselves: TPG size and shape, and how often the adaptive model
// chose its most frequent decision.
func propsMetrics(results []*morphstream.BatchResult, out map[string]float64) {
	var events, ops, nodes, edges, fusedAway float64
	decisions := map[morphstream.Decision]int{}
	total := 0
	for _, res := range results {
		p := res.Props
		events += float64(res.Events)
		ops += float64(p.NumOps)
		nodes += float64(p.NumOps - p.FusedAway + p.FusedOps)
		edges += float64(p.NumTD + p.NumPD)
		fusedAway += float64(p.FusedAway)
		for _, dec := range res.Decisions {
			decisions[dec]++
			total++
		}
	}
	top := 0
	for _, n := range decisions {
		top = max(top, n)
	}
	out["tpg.nodes_per_event"] = ratio(nodes, events)
	out["tpg.edges_per_op"] = ratio(edges, ops)
	out["tpg.fused_ratio"] = ratio(fusedAway, ops)
	out["sched.dominant_decision_share"] = ratio(float64(top), float64(total))
}

// procUsage is this process's resource use so far.
type procUsage struct {
	mem    runtime.MemStats
	cpu    time.Duration
	maxRSS int64 // KiB on Linux
}

func readProc() procUsage {
	var u procUsage
	runtime.ReadMemStats(&u.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSS = ru.Maxrss
	}
	return u
}

func procMetrics(before, after procUsage, events float64, out map[string]float64) {
	out["proc.allocs_per_event"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), events)
	out["proc.alloc_bytes_per_event"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), events)
	out["proc.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	out["proc.cpu_s_per_mevent"] = ratio((after.cpu - before.cpu).Seconds(), events/1e6)
	out["proc.peak_rss_mb"] = float64(after.maxRSS) / 1024
}

// tracedLoop is the closed loop of the traced run: it sends whole batches
// for d, times a sample of the Ingest calls, and records when each batch's
// first and last event went in. The engine must be drained at a batch
// boundary when it starts, so that batch j of the loop is delivery j after
// it. ingestNS is the median sampled call: what Ingest costs when it does not
// block (how often it blocks is engine.ingest_stalls_per_kevent).
func (r *engineRun) tracedLoop(d time.Duration) (marks [][2]int64, ingestNS float64, err error) {
	calls := &hist{}
	for end := time.Now().Add(d); time.Now().Before(end); {
		first := nowNS()
		for i := 0; i < punctuation; i++ {
			if i%16 != 0 {
				r.send()
				continue
			}
			t0 := nowNS()
			r.send()
			calls.record(nowNS() - t0)
		}
		marks = append(marks, [2]int64{first, nowNS()})
	}
	return marks, calls.quantile(0.5), r.eng.Drain()
}

// runTraced is the second, traced run of a workload. It measures no
// end-to-end metric; it explains them: a saturation phase with a telemetry
// registry attached (or, for RPC, morphserve's admin endpoint scraped) and
// a span pair per batch; a single-thread run of the same stream as scaling
// baseline; and the layer probes.
func runTraced(env *environment, w workload, seed int64, seconds int) (measurement, error) {
	m := measurement{Diagnostics: map[string]float64{}}
	out := map[string]float64{}
	tr := &tracer{}
	streams := genStreams(w, seed)
	stream, names := interleave(streams), keyNames(w)
	total := time.Duration(seconds) * time.Second
	durA, durB := total/2, total/4

	// traced is the traced saturation throughput; twoThread the same
	// stream's in-process throughput at the ground rules' thread count.
	var traced, twoThread float64
	var err error
	if w.Kind == kindRPC {
		durB = total / 8
		if traced, err = tracedRPC(env, w, streams, durA, tr, &m, out); err != nil {
			return m, err
		}
		// The same events in-process, without the wire: the base of the
		// wire ratio, and the source of the planner's counts.
		var results []*morphstream.BatchResult
		if twoThread, results, err = untracedEngineRate(env, w, stream, names, engineThreads, durB); err != nil {
			return m, err
		}
		propsMetrics(results, out)
		out["rpcserve.wire_ratio"] = ratio(traced, twoThread)
	} else {
		if traced, err = tracedEngine(env, w, stream, names, durA, tr, &m, out); err != nil {
			return m, err
		}
		twoThread = traced
	}
	out["trace.throughput_eps"] = traced
	single, _, err := untracedEngineRate(env, w, stream, names, 1, durB)
	if err != nil {
		return m, err
	}
	out["exec.scaling_2t"] = ratio(twoThread, single)

	env.wd.phase("probes", 60*time.Second)
	probed, err := runProbes(env, w, stream, names, streams, tr)
	if err != nil {
		return m, err
	}
	for _, name := range probeMetrics {
		out[name] = -1
	}
	if probed != nil {
		for k, v := range probed {
			out[k] = v
		}
		out["engine.unattributed_share"] = 1 - ratio(probed["probe.attributed_ns_per_event"], out["engine.stage_ns_per_event"])
	}

	self := tr.selfTimes()
	batches := 0.0
	for _, s := range tr.spans {
		if s.Name == spanBatch {
			batches++
		}
	}
	out["trace.latency_self_ms_per_batch"] = ratio(self[spanBatch], batches) / 1e6
	out["trace.ingest_self_ms_per_batch"] = ratio(self[spanIngest], batches) / 1e6

	m.Metrics = withUnits(layerUnits, out)
	path := filepath.Join(env.outDir, w.Name+".trace.json")
	return m, tr.write(path, map[string]any{"workload": w, "seed": seed, "metrics": m.Metrics})
}

// tracedEngine is the traced saturation phase in-process.
func tracedEngine(env *environment, w workload, stream []event, names []string, dur time.Duration, tr *tracer, m *measurement, out map[string]float64) (rate float64, err error) {
	env.wd.phase("traced set-up", 30*time.Second)
	reg := morphstream.NewTelemetryRegistry()
	d, err := openEngine(env, w, stream, names, engineOptions{threads: engineThreads, registry: reg})
	if err != nil {
		return 0, err
	}
	defer d.close()
	env.wd.progress = d.progress
	if err := d.closedLoop(warmupEvents, 0); err != nil {
		return 0, err
	}

	env.wd.phase("traced saturation", dur)
	base := len(d.steps)
	before, procBefore, from := readEngine(d.eng, reg), readProc(), nowNS()
	marks, ingestNS, err := d.tracedLoop(dur)
	if err != nil {
		return 0, err
	}
	after, procAfter := readEngine(d.eng, reg), readProc()

	steps, results := d.steps[base:], d.results[base:]
	for j, mark := range marks[:min(len(marks), len(steps))] {
		tr.add(spanBatch, "", results[j].Seq, mark[0], steps[j].At)
		tr.add(spanIngest, spanBatch, results[j].Seq, mark[0], mark[1])
	}
	counterMetrics(before, after, out)
	propsMetrics(results, out)
	procMetrics(procBefore, procAfter, float64(after.stats.Events-before.stats.Events), out)
	out["engine.ingest_ns_per_event"] = ingestNS

	env.wd.phase("verify", 30*time.Second)
	failed, mismatch := d.verify()
	m.settle(d.sent.Load(), failed, mismatch)
	rates := windowRates(d.timelines(), from, from+int64(dur), phaseWindow)
	return median(rates), d.close()
}

// untracedEngineRate runs the stream closed loop on a fresh in-process engine
// with the given thread count and returns its saturation throughput and the
// batches it delivered.
func untracedEngineRate(env *environment, w workload, stream []event, names []string, threads int, dur time.Duration) (float64, []*morphstream.BatchResult, error) {
	env.wd.phase("baseline run", 30*time.Second+dur)
	d, err := openEngine(env, w, stream, names, engineOptions{threads: threads})
	if err != nil {
		return 0, nil, err
	}
	defer d.close()
	env.wd.progress = d.progress
	if err := d.closedLoop(warmupEvents/4, 0); err != nil {
		return 0, nil, err
	}
	base, from := len(d.results), nowNS()
	if err := d.closedLoop(0, dur); err != nil {
		return 0, nil, err
	}
	rates := windowRates(d.timelines(), from, from+int64(dur), phaseWindow)
	return median(rates), d.results[base:], d.close()
}

// tracedRPC is the traced saturation phase against morphserve: the same
// closed loop as the untraced run, with the server's admin endpoint scraped
// before and after, and a span pair per 1,024 events of each connection.
func tracedRPC(env *environment, w workload, streams [][]event, dur time.Duration, tr *tracer, m *measurement, out map[string]float64) (rate float64, err error) {
	env.wd.phase("traced set-up", 30*time.Second)
	d, err := openRPC(env, w, streams, true)
	if err != nil {
		return 0, err
	}
	defer d.close()
	env.wd.progress = d.progress
	if err := d.closedLoop(warmupEvents, 0); err != nil {
		return 0, err
	}

	env.wd.phase("traced saturation", dur)
	before, err := readServer(d.srv.admin)
	if err != nil {
		return 0, err
	}
	from := nowNS()
	type chunk struct{ first, start, end int64 }
	chunks := make([][]chunk, len(d.producers))
	err = d.each(func(i int, p *rpcProducer) error {
		for end := time.Now().Add(dur); time.Now().Before(end); {
			c := chunk{first: p.sent.Load(), start: nowNS()}
			for j := 0; j < punctuation; j++ {
				p.submitBounded()
			}
			c.end = nowNS()
			chunks[i] = append(chunks[i], c)
		}
		return p.settle()
	})
	if err != nil {
		return 0, err
	}
	after, err := readServer(d.srv.admin)
	if err != nil {
		return 0, err
	}
	for i, p := range d.producers {
		for _, c := range chunks[i] {
			// The chunk is complete when its last event's receipt arrived.
			last := p.steps[c.first+punctuation-1]
			id := int64(i)<<32 | c.first/punctuation
			tr.add(spanBatch, "", id, c.start, last.At)
			tr.add(spanIngest, spanBatch, id, c.start, c.end)
		}
	}
	counterMetrics(before, after, out)
	out["proc.gc_pause_ms"] = (after.series["morph_go_gc_pause_ns_total"] - before.series["morph_go_gc_pause_ns_total"]) / 1e6

	env.wd.phase("verify", 30*time.Second)
	failed, mismatch := d.verify()
	served, _ := d.progress()
	m.settle(served, failed, mismatch)
	rates := windowRates(d.timelines(), from, from+int64(dur), phaseWindow)
	if err := d.close(); err != nil {
		return 0, err
	}
	// The server has exited: its whole life's CPU and peak memory are known.
	if st := d.srv.cmd.ProcessState; st != nil {
		out["proc.cpu_s_per_mevent"] = ratio((st.UserTime() + st.SystemTime()).Seconds(), float64(served)/1e6)
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			out["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024
		}
	}
	return median(rates), nil
}
