package engine

import (
	"testing"
	"time"
)

func TestOverlapMeter(t *testing.T) {
	var m OverlapMeter
	// plan alone, then both, then exec alone: overlap is the middle span.
	m.SetPlan(true)
	time.Sleep(5 * time.Millisecond)
	m.SetExec(true)
	time.Sleep(5 * time.Millisecond)
	m.SetPlan(false)
	time.Sleep(5 * time.Millisecond)
	m.SetExec(false)
	s := m.Stats()
	if s.PlanBusy <= 0 || s.ExecBusy <= 0 || s.Overlap <= 0 {
		t.Fatalf("stats = %+v; want all positive", s)
	}
	if s.Overlap > s.PlanBusy || s.Overlap > s.ExecBusy {
		t.Fatalf("overlap %v exceeds a stage's busy time (%+v)", s.Overlap, s)
	}
	if s.Wall < s.PlanBusy || s.Wall < s.ExecBusy {
		t.Fatalf("wall %v below a stage's busy time (%+v)", s.Wall, s)
	}
	// Idempotent transitions accrue nothing new while idle.
	before := m.Stats()
	m.SetPlan(false)
	m.SetExec(false)
	after := m.Stats()
	if after.PlanBusy != before.PlanBusy || after.ExecBusy != before.ExecBusy || after.Overlap != before.Overlap {
		t.Fatalf("idle transitions changed busy time: %+v -> %+v", before, after)
	}
	// Nil receivers are no-ops, like the Breakdown.
	var nilMeter *OverlapMeter
	nilMeter.SetPlan(true)
	nilMeter.SetExec(true)
	if s := nilMeter.Stats(); s != (OverlapStats{}) {
		t.Fatalf("nil meter stats = %+v", s)
	}
}
