// Package tpg implements MorphStream's Planning stage (paper Section 4):
// the two-phase construction of the Task Precedence Graph.
//
// Stream processing phase: arriving state transactions are decomposed into
// atomic state-access operations; logical dependencies (LDs) are implicit in
// the transaction; operations are inserted into per-key lists together with
// the virtual operations of their parametric sources. Out-of-order arrival
// is tolerated because the lists are only sorted at punctuation.
//
// Transaction processing phase (Finalize): each key list is sorted by
// timestamp; temporal dependencies (TDs) are derived by chaining consecutive
// real operations, and parametric dependencies (PDs) by linking each virtual
// operation to the latest preceding write (window operations link to every
// in-window write; non-deterministic operations fan virtual operations out to
// every key list, paper Section 4.3 and 4.4).
//
// Keys are handled as interned dense ids throughout (store.KeyID): the
// per-key lists are keyed by id, so planning never hashes a string. Both
// phases run on the builder's owning goroutine — the engine's planner.
// Finalize also assigns each operation its dense per-batch Index, which the
// scheduler and executor use to replace pointer-keyed maps with flat slices.
package tpg

import (
	"fmt"
	"slices"

	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// entryKind distinguishes the three flavours of key-list entries.
type entryKind int8

const (
	// real: the operation's own target-key placement; participates in the
	// TD chain.
	real entryKind = iota
	// vo: a virtual operation for a parametric source; receives a PD edge
	// from the latest preceding write.
	vo
	// ndvo: a virtual operation of a non-deterministic access; pessimistic,
	// so it participates in the TD chain in both directions.
	ndvo
)

// entry is one slot in a per-key sorted list.
type entry struct {
	op   *txn.Operation
	kind entryKind
	// window is the event-time range of a window source; zero for plain vo.
	window uint64
}

type keyList struct {
	id      store.KeyID
	entries []entry
}

// Builder accumulates one batch of state transactions and constructs its TPG:
// AddTxn is the stream processing phase, Finalize the transaction processing
// phase. A builder takes no lock and starts no goroutine, because one
// goroutine owns it at a time: the planner while it adds transactions and
// finalizes, then the batch's clean-up (Recycle, Reset). The engine's
// builder pool is the hand-off between them.
type Builder struct {
	lists map[store.KeyID]*keyList
	// touched holds the lists that received their first entry of the batch,
	// in arrival order. Every Finalize pass and AppendDirtyKeys walk it
	// instead of lists, which still holds the previous batch's emptied
	// lists; it also makes the graph's chain order deterministic.
	touched []*keyList

	// edges and writes are Finalize scratch, filled by derive and retained
	// across Reset so steady-state construction stays allocation-free once
	// warm. edges is consumed by linkEdges before the next Finalize can run.
	edges  []edgePair
	writes []writeAt

	txns   []*txn.Transaction
	ndOps  []*txn.Operation
	numOps int
	numLD  int
	multi  int // ops with >1 source key

	// allKeyIDs lazily supplies the key universe for non-deterministic
	// fan-out (typically store.Table.KeyIDs).
	allKeyIDs func() []store.KeyID

	// childPos / parentPos are linkEdges scratch (count-then-offset
	// arrays), retained across Reset.
	childPos  []int32
	parentPos []int32

	// Pooled output buffers reclaimed by Recycle: the next Finalize reuses
	// their capacity for Graph.Ops, Graph.Chains (outer array) and the
	// shared edge backing arrays, so a steady-state engine allocates no
	// per-punctuation graph structure beyond the per-key chain slices.
	poolOps    []*txn.Operation
	poolChains [][]*txn.Operation
	poolChild  []*txn.Operation
	poolParent []*txn.Operation
}

// NewBuilderIDs returns an empty Builder. allKeyIDs supplies the key
// universe for non-deterministic operations (typically store.Table.KeyIDs);
// it may be nil when the workload has none.
func NewBuilderIDs(allKeyIDs func() []store.KeyID) *Builder {
	return &Builder{allKeyIDs: allKeyIDs}
}

// clearCap zeroes a slice's full capacity region and truncates it to zero
// length, dropping the pointers a plain [:0] would retain.
func clearCap[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// Reset clears the builder for the next batch while retaining allocated
// capacity: the per-key lists and the Finalize scratch buffers are emptied,
// not freed, so a long-running engine constructs each punctuation's TPG
// with near-zero steady-state allocation. Outputs of the previous Finalize
// (the Graph, its Ops/Chains, and the operations' edge arrays) are fresh
// allocations and stay valid after Reset.
func (b *Builder) Reset() {
	for id, l := range b.lists {
		if len(l.entries) == 0 {
			// Cold for a full batch: evict, so builder memory tracks the
			// live working set rather than every key ever seen.
			delete(b.lists, id)
		} else {
			l.entries = clearCap(l.entries)
		}
	}
	// The scratch buffers hold operation pointers of the previous batch in
	// their capacity regions; zero them so the batch's graph is collectable
	// once its consumers drop it.
	b.edges = clearCap(b.edges)
	b.writes = clearCap(b.writes)
	b.touched = clearCap(b.touched)
	b.txns = nil // the previous Graph aliases the backing array
	b.ndOps = nil
	b.numOps, b.numLD, b.multi = 0, 0, 0
}

func (b *Builder) appendEntry(id store.KeyID, e entry) {
	l := b.lists[id]
	if l == nil {
		if b.lists == nil {
			b.lists = make(map[store.KeyID]*keyList)
		}
		l = &keyList{id: id}
		b.lists[id] = l
	}
	if len(l.entries) == 0 {
		b.touched = append(b.touched, l)
	}
	l.entries = append(l.entries, e)
}

// AddTxn decomposes one state transaction into its operations and inserts
// them into the per-key lists (stream processing phase).
func (b *Builder) AddTxn(t *txn.Transaction) {
	b.txns = append(b.txns, t)
	b.numOps += len(t.Ops)
	if n := len(t.Ops); n > 1 {
		b.numLD += n - 1
	}
	for _, op := range t.Ops {
		op.SetState(txn.BLK)
		if len(op.SrcIDs) > 1 {
			b.multi++
		}
		if op.IsND() {
			// Fan-out is deferred to Finalize so that lists created by
			// later arrivals are covered too.
			b.ndOps = append(b.ndOps, op)
			continue
		}
		b.appendEntry(op.KeyID, entry{op: op, kind: real})
		for _, src := range op.SrcIDs {
			if src == op.KeyID && op.Window == 0 {
				// Self-sourced write (e.g. balance = f(balance)): the TD
				// chain already orders it after the previous write.
				continue
			}
			b.appendEntry(src, entry{op: op, kind: vo, window: op.Window})
		}
	}
}

// AddTxns adds txns in order on the calling goroutine. workers is unused;
// it stays until ROADMAP item 4(c) lifts the benchmark probe that calls it.
func (b *Builder) AddTxns(txns []*txn.Transaction, workers int) {
	for _, t := range txns {
		b.AddTxn(t)
	}
}

// Graph is the constructed TPG for one batch: vertices are operations, edges
// are the TD/PD dependencies (LDs stay implicit in the transactions).
type Graph struct {
	// Txns are the batch's transactions in the order they were added.
	Txns []*txn.Transaction
	// Ops are all operations of the batch; op.Index is its position here.
	Ops []*txn.Operation
	// Chains groups the real operations of each key in timestamp order;
	// the scheduler uses them as coarse-grained scheduling units.
	Chains [][]*txn.Operation
	// Props are the graph's decision-model properties.
	Props Props

	// NDOps are the batch's non-deterministic operations. Their target
	// keys are unknown at plan time (an ND write may even create a fresh
	// key mid-batch), so the engine's durability commit hook walks them at
	// the punctuation quiescent point — txn.Operation.WrittenID names the
	// key each committed ND write resolved to — to complete the batch's
	// dirty set beyond what the per-key lists knew.
	NDOps []*txn.Operation

	// childBuf/parentBuf are the shared edge backing arrays produced by
	// linkEdges; Recycle reclaims them for the next Finalize.
	childBuf, parentBuf []*txn.Operation
}

// Props are the TPG properties feeding the decision model (paper Table 2).
type Props struct {
	// NumTxns counts the batch's transactions.
	NumTxns int
	// NumOps counts their operations; the graph holds one vertex per
	// operation.
	NumOps int
	// NumLD counts logical dependencies: n-1 per n-operation transaction.
	NumLD int
	// NumTD counts temporal-dependency edges between different transactions.
	NumTD int
	// NumPD counts parametric-dependency edges.
	NumPD int
	// NumND counts non-deterministic operations.
	NumND int
	// NumWindow counts window operations.
	NumWindow int
	// FusedOps and FusedAway are always 0: the graph holds one vertex per
	// operation. They stay because msbench reads them (ROADMAP item 4(b)).
	FusedOps, FusedAway int
	// DegreeSkew is max key-list length over mean length: 1 for perfectly
	// uniform access, large for hot keys (θ in the paper).
	DegreeSkew float64
	// MultiAccessRatio approximates r: the share of operations computing
	// from more than one source state.
	MultiAccessRatio float64
}

// AppendDirtyKeys appends the id of every key the batch under construction
// touches — the keys with at least one per-key-list entry, i.e. every
// operation target and every parametric source — and returns the extended
// slice. The engine uses it as the batch's dirty set: the WAL commit sweep
// and the batch-boundary clean-up visit only these chains instead of the
// whole table. Each key appears once, in the order the batch first touched
// it. The set is a superset of the keys actually written (read-only targets
// and sources are included; the sweep's timestamp filter drops them), and
// it misses only keys resolved at execution time by ND operations, which
// the engine harvests separately from Graph.NDOps.
//
// Call it after the batch's transactions are added and before Finalize: the
// ND fan-out inserts a virtual entry into every known key list, which would
// inflate the dirty set back to the whole key universe.
func (b *Builder) AppendDirtyKeys(dst []store.KeyID) []store.KeyID {
	for _, l := range b.touched {
		dst = append(dst, l.id)
	}
	return dst
}

// Finalize sorts the key lists and derives TD and PD edges (transaction
// processing phase) on the calling goroutine, returning the completed graph.
// workers is unused; it stays until ROADMAP item 4(c) lifts the benchmark
// probe that calls it.
func (b *Builder) Finalize(workers int) *Graph {
	// Non-deterministic fan-out: a pessimistic virtual operation of every
	// ND op goes into every known key list (paper Section 4.4).
	if len(b.ndOps) > 0 {
		universe := map[store.KeyID]struct{}{}
		if b.allKeyIDs != nil {
			for _, id := range b.allKeyIDs() {
				universe[id] = struct{}{}
			}
		}
		// Only lists touched this batch: a reused builder keeps empty
		// lists of earlier batches, which are not part of the current key
		// universe.
		for _, l := range b.touched {
			universe[l.id] = struct{}{}
		}
		for id := range universe {
			for _, op := range b.ndOps {
				b.appendEntry(id, entry{op: op, kind: ndvo})
			}
		}
	}

	g := &Graph{Txns: b.txns, NDOps: b.ndOps}
	g.Props.NumTxns = len(b.txns)
	g.Props.NumOps = b.numOps
	g.Props.NumLD = b.numLD
	if b.numOps > 0 {
		g.Props.MultiAccessRatio = float64(b.multi) / float64(b.numOps)
	}
	if cap(b.poolOps) >= b.numOps {
		g.Ops = b.poolOps[:0]
	} else {
		g.Ops = make([]*txn.Operation, 0, b.numOps)
	}
	b.poolOps = nil
	for _, t := range b.txns {
		for _, op := range t.Ops {
			switch op.Kind {
			case txn.OpNDRead, txn.OpNDWrite:
				g.Props.NumND++
			case txn.OpWindowRead, txn.OpWindowWrite:
				g.Props.NumWindow++
			}
			op.Index = int32(len(g.Ops))
			g.Ops = append(g.Ops, op)
		}
	}
	b.derive(g)
	b.linkEdges(g)

	// Coarse-grained chains: the real operations per key, in timestamp
	// order; ND ops form singleton chains of their own.
	if cap(b.poolChains) > 0 {
		g.Chains = b.poolChains[:0]
		b.poolChains = nil
	}
	for _, l := range b.touched {
		n := 0
		for _, e := range l.entries {
			if e.kind == real {
				n++
			}
		}
		if n == 0 {
			continue
		}
		chain := make([]*txn.Operation, 0, n)
		for _, e := range l.entries {
			if e.kind == real {
				chain = append(chain, e.op)
			}
		}
		g.Chains = append(g.Chains, chain)
	}
	for _, op := range b.ndOps {
		g.Chains = append(g.Chains, []*txn.Operation{op})
	}
	return g
}

// edgePair is one "child depends on parent" dependency.
type edgePair struct {
	p, c *txn.Operation
}

// grownPos returns a zeroed int32 scratch array of length n, reusing buf.
func grownPos(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// linkEdges materialises every operation's parent/child lists from the
// edge buffer: a counting pass sizes two shared backing arrays
// exactly, a fill pass places each edge, and a final pass sorts and
// deduplicates per operation. Lock-free and allocation-exact, unlike the
// txn.AddEdge path (which remains for runtime edge bridging during aborts).
// The edge buffers and position arrays are builder scratch; the backing
// arrays the operations end up pointing into are fresh per batch.
func (b *Builder) linkEdges(g *Graph) {
	nOps := len(g.Ops)
	// Count, then convert to running start offsets in place.
	b.childPos = grownPos(b.childPos, nOps)
	b.parentPos = grownPos(b.parentPos, nOps)
	childPos, parentPos := b.childPos, b.parentPos
	for _, e := range b.edges {
		childPos[e.p.Index]++
		parentPos[e.c.Index]++
	}
	var co, po int32
	for i := 0; i < nOps; i++ {
		co, childPos[i] = co+childPos[i], co
		po, parentPos[i] = po+parentPos[i], po
	}
	childBuf := grownEdgeBuf(b.poolChild, len(b.edges))
	parentBuf := grownEdgeBuf(b.poolParent, len(b.edges))
	b.poolChild, b.poolParent = nil, nil
	for _, e := range b.edges {
		pi, ci := e.p.Index, e.c.Index
		childBuf[childPos[pi]] = e.c
		childPos[pi]++
		parentBuf[parentPos[ci]] = e.p
		parentPos[ci]++
	}
	// After the fill, childPos[i]/parentPos[i] hold the end of region i;
	// region i starts where region i-1 ends.
	co, po = 0, 0
	for _, op := range g.Ops {
		i := op.Index
		op.SetEdges(parentBuf[po:parentPos[i]:parentPos[i]], childBuf[co:childPos[i]:childPos[i]])
		co, po = childPos[i], parentPos[i]
		op.DedupEdges()
	}
	g.childBuf, g.parentBuf = childBuf, parentBuf
}

// grownEdgeBuf returns an edge backing array of length n, reusing a pooled
// buffer when its capacity suffices (Recycle cleared its contents).
func grownEdgeBuf(pool []*txn.Operation, n int) []*txn.Operation {
	if cap(pool) >= n {
		return pool[:n]
	}
	return make([]*txn.Operation, n)
}

// Recycle returns a Graph previously produced by this builder's Finalize to
// the output pool: the next Finalize reuses the Ops slice, the Chains outer
// array and the edge backing arrays instead of reallocating them. The caller
// must guarantee the graph — and the operations' parent/child slices, which
// point into the pooled edge arrays — is no longer referenced; the engine
// calls it during per-punctuation cleanup after post-processing.
func (b *Builder) Recycle(g *Graph) {
	if g == nil {
		return
	}
	b.poolOps = clearCap(g.Ops)
	b.poolChains = clearCap(g.Chains)
	b.poolChild = clearCap(g.childBuf)
	b.poolParent = clearCap(g.parentBuf)
	g.Txns, g.Ops, g.Chains, g.childBuf, g.parentBuf = nil, nil, nil, nil, nil
	g.NDOps = nil
}

// entryBefore orders key-list entries by the operations' (ts, id) order.
func entryBefore(a, b entry) int { return txn.CompareOps(a.op, b.op) }

// searchWrites returns the index of the first write with ts >= t.
func searchWrites(writes []writeAt, t uint64) int {
	i, j := 0, len(writes)
	for i < j {
		h := (i + j) / 2
		if writes[h].ts < t {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// writeAt is one real write in a key list, for PD derivation.
type writeAt struct {
	ts uint64
	op *txn.Operation
}

// derive sorts every list touched this batch, derives its TD/PD edges into
// the builder's edge buffer, and records the edge counts and the degree
// skew in g.Props.
func (b *Builder) derive(g *Graph) {
	b.edges = b.edges[:0]
	// writes retains (ts, op) of every real write of the current list; the
	// buffer is reused across lists.
	writes := b.writes
	maxList, totList := 0, 0
	for _, l := range b.touched {
		entries := l.entries
		slices.SortStableFunc(entries, entryBefore)
		totList += len(entries)
		maxList = max(maxList, len(entries))

		var lastChain *txn.Operation // last TD-chain participant (real or ndvo)
		writes = writes[:0]

		for _, e := range entries {
			switch e.kind {
			case real, ndvo:
				if lastChain != nil && lastChain != e.op {
					b.edges = append(b.edges, edgePair{p: lastChain, c: e.op})
					if lastChain.Txn != e.op.Txn {
						g.Props.NumTD++
					}
				}
				lastChain = e.op
				if e.op.IsWrite() && e.kind == real {
					writes = append(writes, writeAt{e.op.TS(), e.op})
				}
			case vo:
				if e.window > 0 {
					// A window source depends on every write inside
					// [ts-window, ts): any of them aborting must redo the
					// window operation.
					lo := uint64(0)
					if e.op.TS() > e.window {
						lo = e.op.TS() - e.window
					}
					for i := searchWrites(writes, lo); i < len(writes) && writes[i].ts < e.op.TS(); i++ {
						if writes[i].op.Txn != e.op.Txn {
							b.edges = append(b.edges, edgePair{p: writes[i].op, c: e.op})
							g.Props.NumPD++
						}
					}
				} else if i := searchWrites(writes, e.op.TS()); i > 0 {
					// Latest write strictly below the vo's timestamp; writes
					// of the same transaction share its timestamp, so they
					// are naturally excluded.
					b.edges = append(b.edges, edgePair{p: writes[i-1].op, c: e.op})
					g.Props.NumPD++
				}
			}
		}
	}
	b.writes = writes[:0]
	g.Props.DegreeSkew = 1
	if totList > 0 {
		g.Props.DegreeSkew = float64(maxList) / (float64(totList) / float64(len(b.touched)))
	}
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("tpg.Graph{txns: %d, ops: %d, TD: %d, PD: %d, LD: %d}",
		g.Props.NumTxns, g.Props.NumOps, g.Props.NumTD, g.Props.NumPD, g.Props.NumLD)
}
