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
