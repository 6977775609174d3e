package exec

import (
	"sync"
	"sync/atomic"
	"testing"

	"morphstream/internal/sched"
)

// TestWorkQueueConcurrentPop hammers the lock-free ring with concurrent
// pushers and poppers: every pushed unit must be popped exactly once.
func TestWorkQueueConcurrentPop(t *testing.T) {
	const (
		n       = 4096
		pushers = 4
		poppers = 4
	)
	units := make([]*sched.Unit, n)
	for i := range units {
		units[i] = &sched.Unit{ID: i}
	}
	q := newWorkQueue(n)

	popped := make([]atomic.Int32, n)
	var total atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += pushers {
				q.push(units[i])
			}
		}(p)
	}
	for c := 0; c < poppers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for total.Load() < n {
				u := q.tryPop()
				if u == nil {
					continue
				}
				popped[u.ID].Add(1)
				total.Add(1)
			}
		}()
	}
	wg.Wait()

	for i := range popped {
		if got := popped[i].Load(); got != 1 {
			t.Fatalf("unit %d popped %d times; want exactly once", i, got)
		}
	}
}

// TestWorkQueueDrain pins the pop order: pending items drain in push
// order, then tryPop reports empty.
func TestWorkQueueDrain(t *testing.T) {
	q := newWorkQueue(3)
	a, b := &sched.Unit{ID: 0}, &sched.Unit{ID: 1}
	q.push(a)
	q.push(b)
	if got := q.tryPop(); got != a {
		t.Fatalf("first pop = %v; want unit 0", got)
	}
	if got := q.tryPop(); got != b {
		t.Fatalf("second pop = %v; want unit 1", got)
	}
	if got := q.tryPop(); got != nil {
		t.Fatalf("pop after drain = %v; want nil", got)
	}
}

// TestWorkQueueResetDiscardsStale verifies the abort-rebuild contract: a
// reset (performed under quiescence) clears pending items, and no pre-reset
// unit can surface afterwards.
func TestWorkQueueResetDiscardsStale(t *testing.T) {
	const n = 64
	q := newWorkQueue(n)
	stale := make(map[*sched.Unit]bool)
	for i := 0; i < n; i++ {
		u := &sched.Unit{ID: i}
		stale[u] = true
		q.push(u)
	}
	// Drain a few, leave the rest queued, then reset.
	for i := 0; i < 10; i++ {
		if q.tryPop() == nil {
			t.Fatal("premature empty")
		}
	}
	q.reset()
	if got := q.tryPop(); got != nil {
		t.Fatalf("pop after reset = %v; want empty", got)
	}

	fresh := make([]*sched.Unit, n)
	for i := range fresh {
		fresh[i] = &sched.Unit{ID: n + i}
		q.push(fresh[i])
	}
	for i := 0; i < n; i++ {
		u := q.tryPop()
		if u == nil {
			t.Fatalf("queue lost fresh unit %d after reset", i)
		}
		if stale[u] {
			t.Fatalf("stale unit %d surfaced after reset", u.ID)
		}
	}
}
