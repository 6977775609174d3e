package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/exec"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/workload"
)

const testScale = Scale(0.02)

// allDecisions lists the 12 points of the scheduling decision space.
func allDecisions() []sched.Decision {
	var out []sched.Decision
	for _, e := range []sched.Explore{sched.NSExplore, sched.SExploreBFS, sched.SExploreDFS} {
		for _, g := range []sched.Granularity{sched.FSchedule, sched.CSchedule} {
			for _, a := range []sched.AbortMode{sched.EAbort, sched.LAbort} {
				out = append(out, sched.Decision{Explore: e, Gran: g, Abort: a})
			}
		}
	}
	return out
}

// TestMorphSystemMatchesSerialOracle drives every workload family through
// MorphSystem — adaptive, each pinned decision, and Fig. 13's per-group
// pinning — at 1, 2 and 4 threads, and compares committed, aborted and every
// key against the serial oracle. Each Run starts and closes its own engine,
// so the goroutine count must return to where it started.
func TestMorphSystemMatchesSerialOracle(t *testing.T) {
	gs := workload.Config{Txns: 200, StateSize: 48, Theta: 0.6, AbortRatio: 0.05, MultiRatio: 0.3, Seed: 31}
	sl := workload.DefaultSL()
	sl.Txns, sl.StateSize, sl.ComplexityUS, sl.AbortRatio, sl.Seed = 200, 48, 0, 0.05, 31
	tp := workload.DefaultTPGroups()
	tp.Txns, tp.StateSize, tp.ComplexityUS = 200, 48, 0
	workloads := []struct {
		name string
		b    *workload.Batch
	}{
		{"SL", workload.SL(sl)},
		{"GS", workload.GS(gs)},
		{"GSND", workload.GSND(workload.GSNDConfig{Config: gs, NDAccesses: 16})},
		{"GSWindow", workload.GSWindow(workload.GSWindowConfig{Config: gs, WindowSize: 50, ReadEvery: 20, ReadKeys: 4})},
		{"TP", workload.TP(tp)},
	}
	systems := []*MorphSystem{NewMorph(), {Label: "Nested", Config: engine.Config{
		GroupStrategies: map[int]sched.Decision{
			0: {Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort},
			1: {Explore: sched.SExploreBFS, Gran: sched.CSchedule, Abort: sched.EAbort},
		},
	}}}
	for _, d := range allDecisions() {
		systems = append(systems, NewMorphPinned(d, ""))
	}

	goroutines := runtime.NumGoroutine()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			txns, table := w.b.Materialize()
			want := exec.Serial(txns, table)
			wantState := table.Snapshot()
			if w.name == "TP" && want.Aborted == 0 {
				t.Fatal("TP batch forces no aborts")
			}
			for _, sys := range systems {
				for _, threads := range []int{1, 2, 4} {
					res := sys.Run(w.b, threads, nil)
					if res.Committed != want.Committed || res.Aborted != want.Aborted {
						t.Fatalf("%s/%d threads: committed/aborted %d/%d; oracle %d/%d",
							sys.Name(), threads, res.Committed, res.Aborted, want.Committed, want.Aborted)
					}
					if len(res.FinalState) != len(wantState) {
						t.Fatalf("%s/%d threads: %d keys; oracle %d", sys.Name(), threads, len(res.FinalState), len(wantState))
					}
					for k, v := range wantState {
						if res.FinalState[k] != v.(int64) {
							t.Fatalf("%s/%d threads diverges at %s: %d vs %v", sys.Name(), threads, k, res.FinalState[k], v)
						}
					}
				}
			}
		})
	}
	// The executor stage exits before Close returns; the planner may still be
	// on its way out.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs; %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}

func TestMorphSystemName(t *testing.T) {
	if NewMorph().Name() != "MorphStream" {
		t.Error("default name")
	}
	d := sched.Decision{Explore: sched.NSExplore}
	if got := NewMorphPinned(d, "").Name(); !strings.Contains(got, "ns-explore") {
		t.Errorf("pinned name = %q", got)
	}
	if got := NewMorphPinned(d, "X").Name(); got != "X" {
		t.Errorf("labelled name = %q", got)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	s := r.String()
	for _, want := range []string{"== T ==", "a", "bb", "333", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestAllExperimentsRunAtTinyScale smoke-tests every figure runner: each
// must produce a structurally complete report without panicking.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	threads := 2
	runs := []struct {
		name string
		fn   func() *Report
		rows int
		// agree lists columns every row must report identically: each
		// system runs the same batch serialisably, so the counts match.
		agree []int
	}{
		{"fig11", func() *Report { return Fig11(testScale, threads) }, 5, []int{2, 3}},
		{"fig13", func() *Report { return Fig13(testScale, threads) }, 5, []int{3, 4}},
		{"fig14", func() *Report { return Fig14(testScale, threads) }, 6, nil},
		{"fig15", func() *Report { return Fig15(testScale, threads) }, 5, nil},
		{"fig18", func() *Report { return Fig18(testScale, threads) }, 10, nil},
		{"fig19", func() *Report { return Fig19(testScale, threads) }, 12, nil},
		{"fig20", func() *Report { return Fig20(testScale, threads) }, 10, nil},
		{"fig21a", func() *Report { return Fig21a(testScale, threads) }, 3, nil},
		{"fig21b", func() *Report { return Fig21b(testScale, 4) }, 3, nil},
		{"fig23", func() *Report { return Fig23(threads) }, 13, nil},
		{"fig25", func() *Report { return Fig25(threads) }, 10, nil},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			r := run.fn()
			if len(r.Rows) != run.rows {
				t.Fatalf("%s: rows = %d; want %d\n%s", run.name, len(r.Rows), run.rows, r)
			}
			for i, row := range r.Rows {
				if len(row) != len(r.Header) {
					t.Fatalf("%s: row %d has %d cells; header has %d", run.name, i, len(row), len(r.Header))
				}
				for _, c := range run.agree {
					if row[c] != r.Rows[0][c] {
						t.Fatalf("%s: %s reports %s %s; %s reports %s\n%s", run.name, row[0], r.Header[c], row[c], r.Rows[0][0], r.Rows[0][c], r)
					}
				}
			}
		})
	}
}

func TestDynamicExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	r12 := Fig12(testScale, 2)
	if len(r12.Rows) != 12 {
		t.Fatalf("fig12 rows = %d; want 12", len(r12.Rows))
	}
	decisions := map[string]bool{}
	for _, d := range allDecisions() {
		decisions[d.String()] = true
	}
	for _, row := range r12.Rows {
		if !decisions[row[3]] {
			t.Fatalf("fig12 batch %s decision %q is not a decision\n%s", row[0], row[3], r12)
		}
	}
	r16a := Fig16a(testScale, 2)
	if len(r16a.Rows) != 3 {
		t.Fatalf("fig16a rows = %d", len(r16a.Rows))
	}
	// MorphStream's breakdown comes from the engine's own timers.
	for _, c := range []metrics.Category{metrics.Useful, metrics.Construct} {
		if d, err := time.ParseDuration(r16a.Rows[0][1+int(c)]); err != nil || d <= 0 {
			t.Fatalf("fig16a %s %s = %q; want > 0\n%s", r16a.Rows[0][0], c, r16a.Rows[0][1+int(c)], r16a)
		}
	}
	r16b := Fig16b(testScale, 2)
	if len(r16b.Rows) != 3 {
		t.Fatalf("fig16b rows = %d", len(r16b.Rows))
	}
	r17 := Fig17(testScale, 2)
	if len(r17.Rows) != 4 {
		t.Fatalf("fig17 rows = %d", len(r17.Rows))
	}
}
