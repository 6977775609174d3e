package tpg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// mkWrite builds a write op "key = f(srcs)" for tests.
func mkWrite(t *txn.Transaction, key txn.Key, srcs ...txn.Key) *txn.Operation {
	return txn.Build(t).Write(key, srcs, nil)
}

func hasEdge(parent, child *txn.Operation) bool {
	for _, c := range parent.Children() {
		if c == child {
			return true
		}
	}
	return false
}

// TestRunningExampleFigure3 reproduces the paper's Fig. 3: a deposit txn1 and
// two transfer txns over states A and B.
func TestRunningExampleFigure3(t *testing.T) {
	t1 := txn.NewTransaction(1, 1)
	o1 := mkWrite(t1, "A") // deposit to A

	t2 := txn.NewTransaction(2, 2)
	o2 := mkWrite(t2, "A")      // debit A
	o3 := mkWrite(t2, "B", "A") // credit B with f(A)

	t3 := txn.NewTransaction(3, 3)
	o4 := mkWrite(t3, "B")      // debit B
	o5 := mkWrite(t3, "A", "B") // credit A with f(B)

	b := NewBuilderIDs(nil)
	b.AddTxns([]*txn.Transaction{t1, t2, t3}, 1)
	g := b.Finalize(1)

	// TDs: chain in list A is O1->O2->O5; in list B it is O3->O4.
	for _, e := range []struct{ p, c *txn.Operation }{{o1, o2}, {o2, o5}, {o3, o4}} {
		if !hasEdge(e.p, e.c) {
			t.Errorf("missing TD edge %d -> %d", e.p.ID, e.c.ID)
		}
	}
	// PDs: O1 -> O3 (via VO_A of O3), O3 -> O5 (via VO_B of O5).
	for _, e := range []struct{ p, c *txn.Operation }{{o1, o3}, {o3, o5}} {
		if !hasEdge(e.p, e.c) {
			t.Errorf("missing PD edge %d -> %d", e.p.ID, e.c.ID)
		}
	}
	if g.Props.NumTD != 3 {
		t.Errorf("NumTD = %d; want 3", g.Props.NumTD)
	}
	if g.Props.NumPD != 2 {
		t.Errorf("NumPD = %d; want 2", g.Props.NumPD)
	}
	// LDs: one per multi-op transaction (txn2, txn3).
	if g.Props.NumLD != 2 {
		t.Errorf("NumLD = %d; want 2", g.Props.NumLD)
	}
	if g.Props.NumTxns != 3 || g.Props.NumOps != 5 {
		t.Errorf("props = %+v", g.Props)
	}
}

// TestOutOfOrderArrivalSameGraph feeds the same transactions in reverse
// arrival order and expects the identical dependency structure (challenge C1).
func TestOutOfOrderArrivalSameGraph(t *testing.T) {
	build := func(order []int) map[string]bool {
		t1 := txn.NewTransaction(1, 1)
		o1 := mkWrite(t1, "A")
		t2 := txn.NewTransaction(2, 2)
		o2 := mkWrite(t2, "A")
		o3 := mkWrite(t2, "B", "A")
		t3 := txn.NewTransaction(3, 3)
		o4 := mkWrite(t3, "B")
		o5 := mkWrite(t3, "A", "B")
		ops := map[*txn.Operation]string{o1: "o1", o2: "o2", o3: "o3", o4: "o4", o5: "o5"}
		all := []*txn.Transaction{t1, t2, t3}

		b := NewBuilderIDs(nil)
		for _, i := range order {
			b.AddTxn(all[i])
		}
		b.Finalize(1)

		edges := map[string]bool{}
		for op, name := range ops {
			for _, c := range op.Children() {
				edges[name+"->"+ops[c]] = true
			}
		}
		return edges
	}
	inOrder := build([]int{0, 1, 2})
	reversed := build([]int{2, 1, 0})
	if len(inOrder) != len(reversed) {
		t.Fatalf("edge counts differ: %v vs %v", inOrder, reversed)
	}
	for e := range inOrder {
		if !reversed[e] {
			t.Errorf("edge %s missing under out-of-order arrival", e)
		}
	}
}

// TestWindowDependencies reproduces Fig. 4a: a window write aggregating C
// over the past 10 time units into A depends on every in-window write of C.
func TestWindowDependencies(t *testing.T) {
	var writesC []*txn.Operation
	var all []*txn.Transaction
	for i := 1; i <= 3; i++ {
		tx := txn.NewTransaction(int64(i), uint64(i*3)) // ts 3, 6, 9
		writesC = append(writesC, mkWrite(tx, "C"))
		all = append(all, tx)
	}
	wtx := txn.NewTransaction(9, 12)
	wop := txn.Build(wtx).WindowWrite("A", []txn.Key{"C"}, 10, nil)
	all = append(all, wtx)

	b := NewBuilderIDs(nil)
	b.AddTxns(all, 1)
	b.Finalize(1)

	// Window [2, 12): writes at ts 3, 6, 9 are all inside.
	for i, w := range writesC {
		if !hasEdge(w, wop) {
			t.Errorf("missing window PD from write %d (ts %d)", i, w.TS())
		}
	}

	// A second, narrower window [9,12) catches only the last write.
	wtx2 := txn.NewTransaction(10, 12)
	wop2 := txn.Build(wtx2).WindowWrite("A", []txn.Key{"C"}, 3, nil)
	b2 := NewBuilderIDs(nil)
	for i := 1; i <= 3; i++ {
		tx := txn.NewTransaction(int64(i), uint64(i*3))
		writesC[i-1] = mkWrite(tx, "C")
		b2.AddTxn(tx)
	}
	b2.AddTxn(wtx2)
	b2.Finalize(1)
	if hasEdge(writesC[0], wop2) || hasEdge(writesC[1], wop2) {
		t.Error("narrow window depends on out-of-window writes")
	}
	if !hasEdge(writesC[2], wop2) {
		t.Error("narrow window misses in-window write at ts 9")
	}
}

// TestNonDeterministicFanOut reproduces Fig. 4b: an ND write is ordered
// against the operations of every key list.
func TestNonDeterministicFanOut(t *testing.T) {
	t1 := txn.NewTransaction(1, 1)
	oa := mkWrite(t1, "A")
	t2 := txn.NewTransaction(2, 2)
	ob := mkWrite(t2, "B")
	t3 := txn.NewTransaction(3, 3)
	oc := mkWrite(t3, "C")

	nd := txn.NewTransaction(4, 4)
	ond := txn.Build(nd).NDWrite(func(*txn.Ctx) (txn.Key, error) { return "B", nil }, nil, nil)

	// Key D exists in the table but is untouched by this batch; the
	// pessimistic fan-out must still order the ND op within D's list.
	later := txn.NewTransaction(5, 5)
	od := mkWrite(later, "D")

	b := NewBuilderIDs(func() []store.KeyID {
		return []store.KeyID{store.Intern("A"), store.Intern("B"), store.Intern("C"), store.Intern("D")}
	})
	b.AddTxns([]*txn.Transaction{t1, t2, t3, nd, later}, 1)
	g := b.Finalize(1)

	for _, prev := range []*txn.Operation{oa, ob, oc} {
		if !hasEdge(prev, ond) {
			t.Errorf("ND op missing dependency on write of %s", prev.Key)
		}
	}
	// The later write to D must depend on the ND op (it may write D).
	if !hasEdge(ond, od) {
		t.Error("later write to D does not depend on the ND op")
	}
	if g.Props.NumND != 1 {
		t.Errorf("NumND = %d; want 1", g.Props.NumND)
	}
	// The ND op forms its own singleton chain.
	found := false
	for _, c := range g.Chains {
		if len(c) == 1 && c[0] == ond {
			found = true
		}
	}
	if !found {
		t.Error("ND op does not form a singleton chain")
	}
}

func TestSelfSourcedWriteHasNoSelfEdge(t *testing.T) {
	t1 := txn.NewTransaction(1, 1)
	o1 := mkWrite(t1, "A", "A") // balance = f(balance)
	t2 := txn.NewTransaction(2, 2)
	o2 := mkWrite(t2, "A", "A")

	b := NewBuilderIDs(nil)
	b.AddTxns([]*txn.Transaction{t1, t2}, 1)
	b.Finalize(1)

	for _, c := range o1.Children() {
		if c == o1 {
			t.Fatal("self edge on self-sourced write")
		}
	}
	if !hasEdge(o1, o2) {
		t.Fatal("TD between successive self-sourced writes missing")
	}
}

func TestChainsGroupByKey(t *testing.T) {
	var all []*txn.Transaction
	perKey := map[txn.Key]int{}
	for i := 1; i <= 12; i++ {
		tx := txn.NewTransaction(int64(i), uint64(i))
		k := txn.Key(fmt.Sprintf("k%d", i%3))
		mkWrite(tx, k)
		perKey[k]++
		all = append(all, tx)
	}
	b := NewBuilderIDs(nil)
	b.AddTxns(all, 1)
	g := b.Finalize(1)

	if len(g.Chains) != 3 {
		t.Fatalf("chains = %d; want 3", len(g.Chains))
	}
	for _, c := range g.Chains {
		if len(c) != perKey[c[0].Key] {
			t.Errorf("chain for %s has %d ops; want %d", c[0].Key, len(c), perKey[c[0].Key])
		}
		for i := 1; i < len(c); i++ {
			if c[i-1].TS() > c[i].TS() {
				t.Errorf("chain for %s out of order", c[0].Key)
			}
		}
	}
}

func TestDegreeSkewProps(t *testing.T) {
	// 10 ops on one hot key, 1 op each on 10 cold keys.
	b := NewBuilderIDs(nil)
	id := int64(1)
	for i := 0; i < 10; i++ {
		tx := txn.NewTransaction(id, uint64(id))
		mkWrite(tx, "hot")
		b.AddTxn(tx)
		id++
	}
	for i := 0; i < 10; i++ {
		tx := txn.NewTransaction(id, uint64(id))
		mkWrite(tx, txn.Key(fmt.Sprintf("cold%d", i)))
		b.AddTxn(tx)
		id++
	}
	g := b.Finalize(1)
	// mean list length = 20/11, max = 10 -> skew = 5.5
	if g.Props.DegreeSkew < 5 || g.Props.DegreeSkew > 6 {
		t.Errorf("DegreeSkew = %f; want ~5.5", g.Props.DegreeSkew)
	}
}

// TestFinalizeDeterministic: two fresh builders given the same transactions
// produce the same graph — edges, chain order and Props, DegreeSkew
// included — and AppendDirtyKeys lists the batch's keys in the order the
// batch first touched them.
func TestFinalizeDeterministic(t *testing.T) {
	// Intern the keys in reverse, so id order is not first-touch order.
	for i := 23; i >= 0; i-- {
		store.Intern(txn.Key(fmt.Sprintf("det/k%d", i)))
	}
	gen := func() []*txn.Transaction {
		rng := rand.New(rand.NewSource(7))
		var all []*txn.Transaction
		for i := 1; i <= 200; i++ {
			tx := txn.NewTransaction(int64(i), uint64(i))
			for j := 0; j < 1+rng.Intn(3); j++ {
				k := txn.Key(fmt.Sprintf("det/k%d", rng.Intn(24)))
				src := txn.Key(fmt.Sprintf("det/k%d", rng.Intn(24)))
				mkWrite(tx, k, src)
			}
			all = append(all, tx)
		}
		return all
	}
	plan := func() (*Graph, []store.KeyID, []store.KeyID) {
		txns := gen()
		var want []store.KeyID
		seen := map[store.KeyID]bool{}
		touch := func(id store.KeyID) {
			if !seen[id] {
				seen[id] = true
				want = append(want, id)
			}
		}
		for _, tx := range txns {
			for _, op := range tx.Ops {
				touch(op.KeyID)
				for _, src := range op.SrcIDs {
					if src != op.KeyID {
						touch(src)
					}
				}
			}
		}
		b := NewBuilderIDs(nil)
		b.AddTxns(txns, 1)
		dirty := b.AppendDirtyKeys(nil)
		return b.Finalize(1), dirty, want
	}
	chainKeys := func(g *Graph) []store.KeyID {
		var ids []store.KeyID
		for _, c := range g.Chains {
			ids = append(ids, c[0].KeyID)
		}
		return ids
	}

	g1, dirty1, want := plan()
	g2, dirty2, _ := plan()
	if fp1, fp2 := graphFingerprint(g1), graphFingerprint(g2); fp1 != fp2 {
		t.Fatalf("same transactions, different graphs:\n%s\n%s", fp1, fp2)
	}
	if g1.Props.NumTD == 0 || g1.Props.NumPD == 0 {
		t.Fatalf("batch derives no TD or PD edges: %+v", g1.Props)
	}
	if c1, c2 := chainKeys(g1), chainKeys(g2); !slices.Equal(c1, c2) {
		t.Fatalf("chain order differs:\n%v\n%v", c1, c2)
	}
	if !slices.Equal(dirty1, want) || !slices.Equal(dirty2, want) {
		t.Fatalf("dirty keys not in first-touch order:\n got %v\n got %v\nwant %v", dirty1, dirty2, want)
	}
}

// TestFinalizeWarmAllocs: a warm builder re-planning a small batch
// allocates the graph header, the transaction slice's growth and one slice
// per chain, and nothing that scales with the builder's history.
func TestFinalizeWarmAllocs(t *testing.T) {
	keys := [][2]txn.Key{{"wa/A", "wa/B"}, {"wa/C", "wa/D"}, {"wa/A", "wa/E"}, {"wa/C", "wa/F"}}
	txns := make([]*txn.Transaction, len(keys))
	for i, k := range keys {
		tx := txn.NewTransaction(int64(i+1), uint64(i+1))
		mkWrite(tx, k[0], k[0])
		mkWrite(tx, k[1], k[0], k[1])
		txns[i] = tx
	}
	b := NewBuilderIDs(nil)
	var g *Graph
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		b.Recycle(g)
		b.AddTxns(txns, 1)
		g = b.Finalize(1)
	})
	if len(g.Chains) != 6 || g.Props.NumTD == 0 {
		t.Fatalf("unexpected graph: %d chains, %+v", len(g.Chains), g.Props)
	}
	t.Logf("%.0f allocs for %d chains", allocs, len(g.Chains))
	if limit := float64(len(g.Chains) + 8); allocs > limit {
		t.Fatalf("warm plan + Finalize: %.0f allocs; want <= %.0f", allocs, limit)
	}
}

// TestEdgesRespectTimestampOrder asserts the TPG is a DAG by construction:
// every edge goes from a (ts,id)-smaller to a (ts,id)-larger operation.
func TestEdgesRespectTimestampOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var all []*txn.Transaction
	for i := 1; i <= 300; i++ {
		tx := txn.NewTransaction(int64(i), uint64(i))
		b := txn.Build(tx)
		for j := 0; j < 1+rng.Intn(3); j++ {
			k := txn.Key(fmt.Sprintf("k%d", rng.Intn(5)))
			if rng.Intn(2) == 0 {
				b.Read(k, nil)
			} else {
				b.Write(k, []txn.Key{txn.Key(fmt.Sprintf("k%d", rng.Intn(5)))}, nil)
			}
		}
		all = append(all, tx)
	}
	b := NewBuilderIDs(nil)
	b.AddTxns(all, 4)
	g := b.Finalize(4)
	for _, op := range g.Ops {
		for _, c := range op.Children() {
			if c.TS() < op.TS() || (c.TS() == op.TS() && c.ID <= op.ID) {
				t.Fatalf("edge violates (ts,id) order: (%d,%d) -> (%d,%d)",
					op.TS(), op.ID, c.TS(), c.ID)
			}
		}
	}
}

// graphFingerprint reduces a graph to a comparable shape: edge set by
// (txnID, op ordinal) pairs — op IDs are process-global, so ordinals make
// fingerprints comparable across materializations — plus chain count and
// the decision-model properties.
func graphFingerprint(g *Graph) string {
	ord := make(map[*txn.Operation]int)
	for _, t := range g.Txns {
		for i, op := range t.Ops {
			ord[op] = i
		}
	}
	var edges []string
	for _, op := range g.Ops {
		for _, c := range op.Children() {
			edges = append(edges, fmt.Sprintf("%d.%d->%d.%d", op.Txn.ID, ord[op], c.Txn.ID, ord[c]))
		}
	}
	sort.Strings(edges)
	return fmt.Sprintf("edges=%v chains=%d props=%+v", edges, len(g.Chains), g.Props)
}

// TestRecycleSteadyStateEquivalence drives the engine's pooled punctuation
// loop: Reset + Recycle between batches must reproduce exactly the graph a
// fresh builder constructs, for several consecutive batches.
func TestRecycleSteadyStateEquivalence(t *testing.T) {
	gen := func(seed int64) []*txn.Transaction {
		rng := rand.New(rand.NewSource(seed))
		var txns []*txn.Transaction
		for i := 1; i <= 80; i++ {
			tx := txn.NewTransaction(int64(i), uint64(i))
			for j := 0; j < 1+rng.Intn(2); j++ {
				mkWrite(tx, txn.Key(fmt.Sprintf("rk%d", rng.Intn(10))), txn.Key(fmt.Sprintf("rk%d", rng.Intn(10))))
			}
			txns = append(txns, tx)
		}
		return txns
	}

	steady := NewBuilderIDs(nil)
	var prev *Graph
	for round := int64(0); round < 4; round++ {
		if prev != nil {
			steady.Reset()
			steady.Recycle(prev)
		}
		steady.AddTxns(gen(round), 2)
		g := steady.Finalize(2)

		fresh := NewBuilderIDs(nil)
		fresh.AddTxns(gen(round), 2)
		want := fresh.Finalize(2)

		if got, wantFp := graphFingerprint(g), graphFingerprint(want); got != wantFp {
			t.Fatalf("round %d: recycled graph diverges from fresh build:\n got %s\nwant %s", round, got, wantFp)
		}
		prev = g
	}
}

// TestRecycleNilGraphIsNoop guards the engine's first-punctuation path.
func TestRecycleNilGraphIsNoop(t *testing.T) {
	b := NewBuilderIDs(nil)
	b.Recycle(nil)
	tx := txn.NewTransaction(1, 1)
	mkWrite(tx, "nq")
	b.AddTxn(tx)
	if g := b.Finalize(1); len(g.Ops) != 1 {
		t.Fatalf("ops = %d; want 1", len(g.Ops))
	}
}

// TestAppendDirtyKeysIsTheBatchKeySet: the dirty set is every target and
// source of the batch under construction, each once — also on a reused
// builder, which still holds the previous batch's emptied lists, and
// regardless of how many operations hit a key.
func TestAppendDirtyKeysIsTheBatchKeySet(t *testing.T) {
	want := func(keys ...txn.Key) []store.KeyID {
		ids := make([]store.KeyID, len(keys))
		for i, k := range keys {
			ids[i] = store.Intern(k)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	check := func(label string, b *Builder, keys ...txn.Key) {
		t.Helper()
		got := b.AppendDirtyKeys(nil)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(want(keys...)) {
			t.Fatalf("%s: dirty = %v; want %v", label, got, want(keys...))
		}
	}
	b := NewBuilderIDs(nil)
	t1 := txn.NewTransaction(1, 1)
	mkWrite(t1, "dk/A", "dk/A")
	mkWrite(t1, "dk/B", "dk/A", "dk/C") // C only as a source
	t2 := txn.NewTransaction(2, 2)
	mkWrite(t2, "dk/A", "dk/A") // A again: still one entry
	b.AddTxns([]*txn.Transaction{t1, t2}, 1)
	check("first batch", b, "dk/A", "dk/B", "dk/C")
	if got := b.AppendDirtyKeys([]store.KeyID{7}); len(got) != 4 || got[0] != 7 {
		t.Fatalf("AppendDirtyKeys must append to dst: %v", got)
	}

	b.Recycle(b.Finalize(1))
	b.Reset()
	check("after Reset", b)
	t3 := txn.NewTransaction(3, 3)
	mkWrite(t3, "dk/B", "dk/D")
	b.AddTxn(t3)
	check("reused builder", b, "dk/B", "dk/D")
}
