package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// phaseWindow is the width of the windows both timed phases are cut into.
// throughput_eps and latency_p50_ms are medians over the windows of their
// phase, so that one stall of the shared box spoils one window's figure and
// not the run's.
const phaseWindow = int64(time.Second)

// driver is what the end-to-end protocol needs from a system under test;
// the in-process engine and the morphserve child both provide it.
type driver interface {
	// closedLoop sends n events (or for d when n is 0) under backpressure
	// and waits for every result.
	closedLoop(n int64, d time.Duration) error
	// paced sends open loop at rate for d and waits for every result.
	paced(rate float64, d time.Duration) (pacedPhase, error)
	// timelines returns every producer's deliveries so far.
	timelines() [][]step
	// progress counts events sent and results delivered.
	progress() (sent, delivered int64)
	// verify checks every output against the serial oracle and returns the
	// number of events that failed on their own (refused, lost, not
	// durable); an oracle mismatch is an error and fails the whole run.
	verify() (failed int64, err error)
	// close shuts the system down.
	close() error
}

// pacedPhase is the outcome of one open-loop phase.
type pacedPhase struct {
	schedules []schedule // one per producer, parallel to timelines()
	lag       *hist      // how late the generator itself ran
	backlog   int64      // events in flight at the end beyond those at the start
}

// measurement is everything one run reports.
type measurement struct {
	result
	// Diagnostics are printed and stored beside the metrics but never gated.
	Diagnostics map[string]float64 `json:"diagnostics"`
}

// settle records the run's verdict. Events that failed on their own —
// refused, lost, not durable — count one by one; an output the serial oracle
// disagrees with fails every event the run attempted.
func (m *measurement) settle(attempted, failed int64, mismatch error) {
	m.Attempted, m.Failed = attempted, failed
	if mismatch != nil {
		fmt.Fprintln(os.Stderr, "msbench: oracle mismatch:", mismatch)
		m.Failed = attempted
	}
	m.Correct = m.Failed == 0
}

// endToEndUnits names the end-to-end metrics of the untraced run with their
// units: what a user of the system sees.
var endToEndUnits = map[string]string{
	"throughput_eps": "events/s",
	"latency_p50_ms": "ms",
	"setup_s":        "s",
}

// runEndToEnd is the untraced protocol: set-up (timed, several fresh
// processes), warm-up, closed-loop saturation, open-loop paced phase at the
// workload's frozen rate, then verification of every output.
func runEndToEnd(env *environment, w workload, seed int64, seconds int) (measurement, error) {
	m := measurement{Diagnostics: map[string]float64{}}
	streams := genStreams(w, seed)
	m.Diagnostics["stream_hash_low32"] = float64(uint32(streamHash(streams)))

	env.wd.phase("setup", 30*time.Second)
	setups, err := otherSetups(env, w, seed)
	if err != nil {
		return m, err
	}
	setupStart := time.Now()
	d, err := openDriver(env, w, streams)
	if err != nil {
		return m, err
	}
	defer d.close()
	env.wd.progress = d.progress
	// Set-up ends when the first event is accepted.
	if err := d.closedLoop(1, 0); err != nil {
		return m, err
	}
	setups = append(setups, time.Since(setupStart).Seconds())

	env.wd.phase("warm-up", 10*time.Second)
	if err := d.closedLoop(warmupEvents-1, 0); err != nil {
		return m, err
	}

	satDur := time.Duration(saturationShare * float64(seconds) * float64(time.Second))
	pacedDur := time.Duration(seconds)*time.Second - satDur
	env.wd.phase("saturation", satDur)
	satFrom := nowNS()
	if err := d.closedLoop(0, satDur); err != nil {
		return m, err
	}
	rates := windowRates(d.timelines(), satFrom, satFrom+int64(satDur), phaseWindow)

	env.wd.phase("paced", pacedDur)
	p, err := d.paced(w.RateEPS, pacedDur)
	if err != nil {
		return m, err
	}

	env.wd.phase("verify", 30*time.Second)
	failed, mismatch := d.verify()
	sent, _ := d.progress()

	all := &hist{}
	var missing int64
	var p50s []float64
	for i, tl := range d.timelines() {
		windows, miss := latencies(tl, p.schedules[i], phaseWindow)
		missing += miss
		// Only whole windows count; each producer's are samples of their own.
		for k, h := range windows {
			all.merge(h)
			if int64(k) < int64(pacedDur)/phaseWindow {
				p50s = append(p50s, h.quantile(0.50)/1e6)
			}
		}
	}
	overLimit := missing
	for i, c := range all.counts {
		if histMid(i) > latencyLimitMS*1e6 {
			overLimit += c
		}
	}
	pacedSent := all.n + missing

	m.settle(sent, failed+missing, mismatch)
	m.Metrics = withUnits(endToEndUnits, map[string]float64{
		"throughput_eps": median(rates),
		"latency_p50_ms": median(p50s),
		"setup_s":        median(setups),
	})
	m.Diagnostics["failed_ratio"] = float64(m.Failed) / float64(max(m.Attempted, 1))
	m.Diagnostics["slo_miss_ratio"] = float64(overLimit) / float64(max(pacedSent, 1))
	m.Diagnostics["latency_p99_ms"] = all.quantile(0.99) / 1e6
	m.Diagnostics["latency_p99_samples_beyond"] = float64(all.beyond(0.99))
	m.Diagnostics["latency_p999_ms"] = all.quantile(0.999) / 1e6
	m.Diagnostics["latency_max_ms"] = float64(all.max) / 1e6
	m.Diagnostics["gen_lag_p99_ms"] = p.lag.quantile(0.99) / 1e6
	m.Diagnostics["backlog_growth_events"] = float64(p.backlog)
	m.Diagnostics["paced_events"] = float64(pacedSent)
	m.Diagnostics["rate_eps"] = w.RateEPS
	q1, _, q3 := quartiles(rates)
	m.Diagnostics["throughput_window_iqr_share"] = (q3 - q1) / median(rates)
	return m, d.close()
}

// otherSetups times the set-up in setupSamples-1 fresh processes (the run's
// own set-up is the last sample): a second set-up inside one process would
// find the process-wide key dictionary already filled and the heap grown.
func otherSetups(env *environment, w workload, seed int64) ([]float64, error) {
	var out []float64
	for i := 1; i < setupSamples; i++ {
		if w.Kind == kindRPC {
			start := time.Now()
			s, err := startServer(env, w, false)
			if err != nil {
				return nil, err
			}
			out = append(out, time.Since(start).Seconds())
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		cmd := exec.Command(env.self, "-setup-only", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Env = append(os.Environ(), "MSBENCH_HOME="+env.home)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up sample printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}

// setupOnly is the child side of otherSetups for in-process workloads: one
// timed set-up up to the first accepted event, printed in seconds.
func setupOnly(env *environment, w workload, seed int64) error {
	streams := genStreams(w, seed)
	start := time.Now()
	d, err := openDriver(env, w, streams)
	if err != nil {
		return err
	}
	if err := d.closedLoop(1, 0); err != nil {
		return err
	}
	fmt.Println(time.Since(start).Seconds())
	return d.close()
}

func openDriver(env *environment, w workload, streams [][]event) (driver, error) {
	if w.Kind == kindRPC {
		return openRPC(env, w, streams, false)
	}
	return openEngine(env, w, interleave(streams), keyNames(w), engineOptions{threads: engineThreads})
}

// openEngine starts an in-process engine on the stream, giving it a WAL
// directory of its own when the workload logs.
func openEngine(env *environment, w workload, stream []event, names []string, eo engineOptions) (*engineRun, error) {
	if w.WAL {
		dir, err := os.MkdirTemp(env.outDir, w.Name+".wal-")
		if err != nil {
			return nil, err
		}
		eo.walDir = dir
	}
	r, err := startEngine(w, stream, names, eo)
	if err != nil {
		os.RemoveAll(eo.walDir)
		return nil, err
	}
	r.ownedWAL = eo.walDir
	return r, nil
}
