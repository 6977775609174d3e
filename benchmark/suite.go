package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// suiteDoc is what a whole-suite run (-workload all) writes: every workload,
// -repeat untraced runs each plus one traced run, with where and on what it
// was measured. -compare reads two of them.
type suiteDoc struct {
	Meta      suiteMeta                 `json:"meta"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteMeta struct {
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Repeat     int            `json:"repeat"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	WALFSType  string         `json:"wal_fs_type"`
	Frozen     map[string]any `json:"frozen_parameters"`
}

type suiteWorkload struct {
	// Runs are the untraced runs, seed, seed+1, ...
	Runs []measurement `json:"runs"`
	// Summary gives each end-to-end metric's quartiles over Runs.
	Summary map[string]summary `json:"summary"`
	// Layers are the traced run's per-layer metrics; null, with the reason
	// in LayersError, when that run could not be made.
	Layers      map[string]metric `json:"layers"`
	LayersError string            `json:"layers_error,omitempty"`
	// TraceOverhead is traced over untraced saturation throughput.
	TraceOverhead float64 `json:"trace_overhead"`
}

type summary struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

func frozenParameters() map[string]any {
	return map[string]any{
		"engine_threads": engineThreads, "punctuation": punctuation, "cycle_events": cycleEvents,
		"warmup_events": warmupEvents, "latency_limit_ms": latencyLimitMS,
		"rpc_clients": rpcClients, "rpc_inflight": rpcInflight, "rpc_interval": rpcInterval,
		"setup_samples": setupSamples, "saturation_share": saturationShare, "probe_batches": probeBatches,
		"workloads": workloads,
	}
}

// runChild runs one workload in a process of its own — fresh heap, fresh
// process-wide key dictionary — and parses the result line it prints.
func runChild(env *environment, name string, seed int64, seconds int, traced bool) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, env.self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", trace)
	cmd.Env = append(os.Environ(), "MSBENCH_HOME="+env.home)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var r result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		return r, fmt.Errorf("%s: no result (%v): %s", name, err, lastLines(stderr.String(), 10))
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w: %s", name, err, lastLines(stderr.String(), 10))
	}
	return r, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// runSuite runs every workload and writes the suite document to path (or
// standard output). It reports failure when any run failed, after finishing
// the others.
func runSuite(env *environment, seed int64, seconds, repeat int, path string) error {
	doc := suiteDoc{
		Meta: suiteMeta{
			Commit: gitCommit(env), Seed: seed, Seconds: seconds, Repeat: repeat,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			WALFSType: fsType(env.outDir), Frozen: frozenParameters(),
		},
		Workloads: map[string]*suiteWorkload{},
	}
	failed := 0
	for _, w := range workloads {
		sw := &suiteWorkload{Summary: map[string]summary{}}
		doc.Workloads[w.Name] = sw
		for i := 0; i < repeat; i++ {
			fmt.Fprintf(os.Stderr, "msbench: %s run %d/%d\n", w.Name, i+1, repeat)
			r, err := runChild(env, w.Name, seed+int64(i), seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "msbench:", err)
				failed++
			}
			m := measurement{result: r}
			// The child leaves its diagnostics beside its trace files.
			if b, err := os.ReadFile(filepath.Join(env.outDir, w.Name+".e2e.json")); err == nil {
				json.Unmarshal(b, &m)
			}
			sw.Runs = append(sw.Runs, m)
		}
		for name := range sw.Runs[0].Metrics {
			var vals []float64
			for _, r := range sw.Runs {
				vals = append(vals, r.Metrics[name].Value)
			}
			q1, q2, q3 := quartiles(vals)
			sw.Summary[name] = summary{q1, q2, q3, sw.Runs[0].Metrics[name].Unit}
		}
		fmt.Fprintf(os.Stderr, "msbench: %s traced run\n", w.Name)
		r, err := runChild(env, w.Name, seed, seconds, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msbench:", err)
			sw.LayersError = err.Error()
			continue
		}
		sw.Layers = r.Metrics
		sw.TraceOverhead = ratio(r.Metrics["trace.throughput_eps"].Value, sw.Summary["throughput_eps"].Median)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if path == "" {
		fmt.Println(string(b))
	} else if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	printSummary(doc)
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

func printSummary(doc suiteDoc) {
	for _, w := range workloads {
		sw := doc.Workloads[w.Name]
		fmt.Fprintf(os.Stderr, "\n%s (%d runs; median [q1, q3])\n", w.Name, len(sw.Runs))
		for _, name := range sortedKeys(sw.Summary) {
			s := sw.Summary[name]
			fmt.Fprintf(os.Stderr, "  %-18s %12.5g %-9s [%.5g, %.5g]\n", name, s.Median, s.Unit, s.Q1, s.Q3)
		}
		fmt.Fprintf(os.Stderr, "  %-18s %12.5g\n", "trace_overhead", sw.TraceOverhead)
	}
	fmt.Fprintln(os.Stderr, "\nThis is a measurement of one commit; it claims no gain.")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fsType names the filesystem under dir (the WAL's fsync cost depends on it).
func fsType(dir string) string {
	out, err := exec.Command("stat", "-f", "-c", "%T", dir).Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func gitCommit(env *environment) string {
	out, err := exec.Command("git", "-C", env.home, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints, per workload and end-to-end metric, both suites' medians,
// their ratio (b over a, a being the base), the metric's bound, and a
// verdict: "worse" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's quartile spread is wider than the bound —
// the runs cannot tell — and "ok" otherwise.
func compare(env *environment, pathA, pathB string) error {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join(env.home, "..", "BENCHMARK.json"), &spec); err != nil {
		return err
	}
	var a, b suiteDoc
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	fmt.Printf("base a = %s (commit %s, seed %d, %d runs)\n", pathA, a.Meta.Commit, a.Meta.Seed, a.Meta.Repeat)
	fmt.Printf("     b = %s (commit %s, seed %d, %d runs)\n\n", pathB, b.Meta.Commit, b.Meta.Seed, b.Meta.Repeat)
	fmt.Printf("%-16s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	worse := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-16s missing from one side\n", w.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.Summary[m.Name], wb.Summary[m.Name]
			r := ratio(sb.Median, sa.Median)
			verdict := "ok"
			switch {
			case ratio(sa.Q3-sa.Q1, sa.Median) > m.Bound || ratio(sb.Q3-sb.Q1, sb.Median) > m.Bound:
				verdict = "unresolved"
			case m.Better == "lower" && r > 1+m.Bound, m.Better == "higher" && r < 1-m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-16s %-16s %12.5g %12.5g %8.3f %6.2f  %s\n", w.Name, m.Name, sa.Median, sb.Median, r, m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
