package harness

import (
	"testing"
	"time"
)

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
