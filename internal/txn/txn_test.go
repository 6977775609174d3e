package txn

import (
	"sync"
	"testing"

	"morphstream/internal/store"
)

func TestOpKindString(t *testing.T) {
	kinds := map[OpKind]string{
		OpRead: "read", OpWrite: "write",
		OpWindowRead: "window-read", OpWindowWrite: "window-write",
		OpNDRead: "nd-read", OpNDWrite: "nd-write",
		OpKind(99): "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q; want %q", k, got, want)
		}
	}
}

func TestOpStateString(t *testing.T) {
	states := map[OpState]string{BLK: "BLK", RDY: "RDY", EXE: "EXE", ABT: "ABT", OpState(9): "?"}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("OpState(%d).String() = %q; want %q", s, got, want)
		}
	}
}

func TestFSMTransitions(t *testing.T) {
	tx := NewTransaction(1, 10)
	op := &Operation{ID: 1}
	tx.AddOp(op)

	if op.State() != BLK {
		t.Fatalf("initial state = %v; want BLK", op.State())
	}
	if !op.CASState(BLK, RDY) {
		t.Fatal("T1 BLK->RDY failed")
	}
	if op.CASState(BLK, EXE) {
		t.Fatal("CAS from wrong state succeeded")
	}
	op.SetState(EXE)
	if op.State() != EXE {
		t.Fatalf("state = %v; want EXE", op.State())
	}
	op.SetState(ABT)
	if op.State() != ABT {
		t.Fatalf("state = %v; want ABT", op.State())
	}
	if op.TS() != 10 {
		t.Fatalf("TS = %d; want 10", op.TS())
	}
}

func TestAddEdgeAndDedup(t *testing.T) {
	tx := NewTransaction(1, 1)
	a := &Operation{ID: 1}
	b := &Operation{ID: 2}
	tx.AddOp(a)
	tx.AddOp(b)

	AddEdge(a, b)
	AddEdge(a, b) // duplicate
	AddEdge(a, a) // self edge ignored
	a.DedupEdges()
	b.DedupEdges()

	if len(a.Children()) != 1 || a.Children()[0] != b {
		t.Fatalf("children = %v", a.Children())
	}
	if len(b.Parents()) != 1 || b.Parents()[0] != a {
		t.Fatalf("parents = %v", b.Parents())
	}
}

func TestAbortLatch(t *testing.T) {
	tx := NewTransaction(1, 1)
	if tx.Aborted() {
		t.Fatal("fresh transaction marked aborted")
	}
	tx.MarkAborted()
	tx.MarkAborted()
	if !tx.Aborted() {
		t.Fatal("MarkAborted did not latch")
	}
}

func TestWrittenRecord(t *testing.T) {
	op := &Operation{ID: 1}
	if _, ok := op.WrittenID(); ok {
		t.Fatal("fresh op reports written")
	}
	id := store.Intern("k1")
	op.MarkWrittenID(id)
	if got, ok := op.WrittenID(); !ok || got != id {
		t.Fatalf("WrittenID = %d, %v; want %d", got, ok, id)
	}
	op.ClearWritten()
	if _, ok := op.WrittenID(); ok {
		t.Fatal("ClearWritten did not clear")
	}
}

func TestBlotter(t *testing.T) {
	b := NewEventBlotter()
	b.Params["amount"] = int64(7)
	var sink ResultSink
	ctx := Ctx{Blotter: b, Sink: &sink}
	for i := 0; i < 10; i++ {
		ctx.AddResult(int64(i))
	}
	sink.Flush()
	if got := len(b.Results()); got != 10 {
		t.Fatalf("results = %d; want 10", got)
	}
	b.Reset()
	if got := len(b.Results()); got != 0 {
		t.Fatalf("results after reset = %d; want 0", got)
	}
}

// TestResultSinkRouting pins the execution-time blotting contract:
// Ctx.AddResult buffers results per worker and only Flush lands them on the
// blotters.
func TestResultSinkRouting(t *testing.T) {
	b1, b2 := NewEventBlotter(), NewEventBlotter()
	var sink ResultSink

	buffered := Ctx{Blotter: b1, Sink: &sink}
	buffered.AddResult(int64(2))
	buffered.Blotter = b2
	buffered.AddResult(int64(3))
	if got := len(b1.Results()); got != 0 {
		t.Fatalf("b1 grew before flush: %d results", got)
	}
	if n := len(sink.entries); n != 2 {
		t.Fatalf("sink holds %d entries; want 2", n)
	}

	sink.Flush()
	if len(sink.entries) != 0 {
		t.Fatalf("sink not emptied by flush")
	}
	if got := b1.Results(); len(got) != 1 || got[0].(int64) != 2 {
		t.Fatalf("b1 after flush = %v; want [2]", got)
	}
	if got := b2.Results(); len(got) != 1 || got[0].(int64) != 3 {
		t.Fatalf("b2 after flush = %v; want [3]", got)
	}
}

// TestConcurrentSinksIndependent exercises the intended parallel pattern:
// many workers blotting through their own sinks concurrently, flushed
// sequentially at a quiescent point.
func TestConcurrentSinksIndependent(t *testing.T) {
	const workers, perWorker = 8, 500
	b := NewEventBlotter()
	sinks := make([]ResultSink, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := Ctx{Blotter: b, Sink: &sinks[w]}
			for i := 0; i < perWorker; i++ {
				ctx.AddResult(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	for w := range sinks {
		sinks[w].Flush()
	}
	if got := len(b.Results()); got != workers*perWorker {
		t.Fatalf("results = %d; want %d", got, workers*perWorker)
	}
}

func TestBuilderComposesAllKinds(t *testing.T) {
	tx := NewTransaction(1, 5)
	b := Build(tx)
	b.Read("a", nil)
	b.Write("b", []Key{"a"}, nil)
	b.WindowRead("c", 100, nil)
	b.WindowWrite("d", []Key{"c"}, 50, nil)
	b.NDRead(nil, nil)
	b.NDWrite(nil, nil, nil)

	if len(tx.Ops) != 6 {
		t.Fatalf("ops = %d; want 6", len(tx.Ops))
	}
	wantKinds := []OpKind{OpRead, OpWrite, OpWindowRead, OpWindowWrite, OpNDRead, OpNDWrite}
	seen := map[int64]bool{}
	for i, op := range tx.Ops {
		if op.Kind != wantKinds[i] {
			t.Errorf("op[%d].Kind = %v; want %v", i, op.Kind, wantKinds[i])
		}
		if op.Txn != tx {
			t.Errorf("op[%d] not wired to txn", i)
		}
		if seen[op.ID] {
			t.Errorf("duplicate op ID %d", op.ID)
		}
		seen[op.ID] = true
	}
	// WindowRead sources itself; Write records its parametric sources.
	if got := tx.Ops[2].SrcKeys; len(got) != 1 || got[0] != "c" {
		t.Errorf("window read SrcKeys = %v", got)
	}
	if got := tx.Ops[1].SrcKeys; len(got) != 1 || got[0] != "a" {
		t.Errorf("write SrcKeys = %v", got)
	}
	if !tx.Ops[1].IsWrite() || tx.Ops[0].IsWrite() {
		t.Error("IsWrite misclassifies")
	}
	if !tx.Ops[4].IsND() || tx.Ops[3].IsND() {
		t.Error("IsND misclassifies")
	}
}
