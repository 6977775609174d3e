package harness

import (
	"strings"
	"testing"

	"morphstream/internal/exec"
	"morphstream/internal/sched"
	"morphstream/internal/workload"
)

const testScale = Scale(0.02)

func TestMorphSystemMatchesSerialOracle(t *testing.T) {
	c := workload.DefaultSL()
	c.Txns = 300
	c.StateSize = 64
	c.ComplexityUS = 0
	c.AbortRatio = 0.05
	c.Seed = 31
	c.InitialBalance = 1 << 40
	b := workload.SL(c)

	oTxns, oTable := b.Materialize()
	exec.Serial(oTxns, oTable)
	want := oTable.Snapshot()

	for _, sys := range []*MorphSystem{
		NewMorph(),
		NewMorphPinned(sched.Decision{Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort}, ""),
	} {
		res := sys.Run(b, 4, nil)
		for k, v := range want {
			if res.FinalState[k] != v.(int64) {
				t.Fatalf("%s diverges from oracle at %s: %d vs %v", sys.Name(), k, res.FinalState[k], v)
			}
		}
	}
}

func TestMorphSystemNestedGroups(t *testing.T) {
	cfg := workload.DefaultTPGroups()
	cfg.Txns = 400
	cfg.StateSize = 64
	cfg.ComplexityUS = 0
	b := workload.TP(cfg)

	nested := &MorphSystem{
		Label: "Nested",
		GroupDecisions: map[int]sched.Decision{
			0: {Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort},
			1: {Explore: sched.SExploreBFS, Gran: sched.CSchedule, Abort: sched.EAbort},
		},
	}
	res := nested.Run(b, 2, nil)
	if res.Committed+res.Aborted != 400 {
		t.Fatalf("accounting: %+v", res)
	}

	// Same batch through the serial oracle: abort counts of forced-abort
	// transactions must agree (TP aborts are forced, state-independent).
	oTxns, oTable := b.Materialize()
	oracle := exec.Serial(oTxns, oTable)
	if res.Aborted != oracle.Aborted {
		t.Fatalf("nested aborted = %d; oracle %d", res.Aborted, oracle.Aborted)
	}
	for k, v := range oTable.Snapshot() {
		if res.FinalState[k] != v.(int64) {
			t.Fatalf("nested state diverges at %s", k)
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
	}{
		{"fig11", func() *Report { return Fig11(testScale, threads) }, 5},
		{"fig13", func() *Report { return Fig13(testScale, threads) }, 5},
		{"fig14", func() *Report { return Fig14(testScale, threads) }, 6},
		{"fig15", func() *Report { return Fig15(testScale, threads) }, 5},
		{"fig18", func() *Report { return Fig18(testScale, threads) }, 10},
		{"fig19", func() *Report { return Fig19(testScale, threads) }, 12},
		{"fig20", func() *Report { return Fig20(testScale, threads) }, 10},
		{"fig21a", func() *Report { return Fig21a(testScale, threads) }, 3},
		{"fig21b", func() *Report { return Fig21b(testScale, 4) }, 3},
		{"fig23", func() *Report { return Fig23(threads) }, 13},
		{"fig25", func() *Report { return Fig25(threads) }, 10},
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
	r16a := Fig16a(testScale, 2)
	if len(r16a.Rows) != 3 {
		t.Fatalf("fig16a rows = %d", len(r16a.Rows))
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
