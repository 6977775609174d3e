package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestBreakdownAccumulates(t *testing.T) {
	b := &Breakdown{}
	b.Add(Useful, 2*time.Millisecond)
	b.Add(Useful, 3*time.Millisecond)
	b.Add(Abort, time.Millisecond)
	if got := b.Get(Useful); got != 5*time.Millisecond {
		t.Fatalf("Useful = %v", got)
	}
	if got := b.Total(); got != 6*time.Millisecond {
		t.Fatalf("Total = %v", got)
	}
}

func TestBreakdownNilSafe(t *testing.T) {
	var b *Breakdown
	b.Add(Useful, time.Second) // must not panic
	if b.Get(Useful) != 0 || b.Total() != 0 {
		t.Fatal("nil breakdown returned non-zero")
	}
	Start().Stop(b, Useful)
}

func TestBreakdownConcurrent(t *testing.T) {
	b := &Breakdown{}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Add(Sync, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := b.Get(Sync); got != 1600*time.Microsecond {
		t.Fatalf("Sync = %v; want 1.6ms", got)
	}
}

func TestCategoryStrings(t *testing.T) {
	want := []string{"Useful", "Sync", "Lock", "Construct", "Explore", "Abort"}
	for i, c := range Categories() {
		if c.String() != want[i] {
			t.Errorf("category %d = %q; want %q", i, c.String(), want[i])
		}
	}
	if Category(99).String() != "?" {
		t.Error("unknown category stringer")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(10000, time.Second); got != 10 {
		t.Fatalf("Throughput = %v; want 10 k/sec", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Fatalf("zero elapsed = %v", got)
	}
}

func TestMemSampler(t *testing.T) {
	m := StartMemSampler(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	samples := m.Stop()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	for _, s := range samples {
		if s.HeapBytes == 0 {
			t.Fatal("zero heap sample")
		}
	}
}

func TestCPUTicksProxyDelta(t *testing.T) {
	before := ReadCPUTicksProxy()
	waste := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		waste = append(waste, make([]byte, 1024))
	}
	_ = waste
	after := ReadCPUTicksProxy()
	d := after.Delta(before)
	if d.AllocBytes < 1000*1024 {
		t.Fatalf("alloc delta = %d; want >= 1MB", d.AllocBytes)
	}
}

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
