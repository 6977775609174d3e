package txn

import (
	"sync/atomic"

	"morphstream/internal/store"
)

// opIDs hands out globally unique operation IDs; edge deduplication and
// deterministic intra-unit ordering rely on them.
var opIDs atomic.Int64

// NextOpID returns a fresh operation ID.
func NextOpID() int64 { return opIDs.Add(1) }

// internKeys resolves a source-key list to dense ids, in order.
func internKeys(ks []Key) []store.KeyID {
	if len(ks) == 0 {
		return nil
	}
	ids := make([]store.KeyID, len(ks))
	for i, k := range ks {
		ids[i] = store.Intern(k)
	}
	return ids
}

// Builder offers the system-provided APIs of paper Table 5 for composing a
// state transaction inside STATE_ACCESS. Each call appends one atomic
// state-access operation to the transaction. Keys are interned to dense
// KeyIDs here, once per operation — the planning, scheduling and execution
// hot paths only ever touch the ids.
type Builder struct {
	t *Transaction
}

// Build wraps an existing transaction for composition.
func Build(t *Transaction) *Builder { return &Builder{t: t} }

// Read issues a read request for key d; the result is stored in the blotter
// through fn for post-processing.
//
//	READ(Key d, EventBlotter eb)
func (b *Builder) Read(d Key, fn ReadFn) *Operation {
	op := &Operation{
		ID: NextOpID(), Kind: OpRead, Key: d, KeyID: store.Intern(d),
		ReadFn: fn,
	}
	b.t.AddOp(op)
	return op
}

// Write issues a write request so that state(d) is updated with f applied to
// state(srcs...); srcs induce parametric dependencies.
//
//	WRITE(Key d, Fun f*(Keys s...n))
func (b *Builder) Write(d Key, srcs []Key, f WriteFn) *Operation {
	op := &Operation{
		ID: NextOpID(), Kind: OpWrite, Key: d, KeyID: store.Intern(d),
		SrcKeys: srcs, SrcIDs: internKeys(srcs), WriteFn: f,
	}
	b.t.AddOp(op)
	return op
}

// WindowRead issues a window read applying winf to the versions of key d
// within the past size units of event time.
//
//	READ(WindowFun win_f*(Key d, Size t), EventBlotter eb)
func (b *Builder) WindowRead(d Key, size uint64, winf WindowFn) *Operation {
	id := store.Intern(d)
	op := &Operation{
		ID: NextOpID(), Kind: OpWindowRead, Key: d, KeyID: id,
		SrcKeys: []Key{d}, SrcIDs: []store.KeyID{id},
		Window: size, WindowFn: winf,
	}
	b.t.AddOp(op)
	return op
}

// WindowWrite updates state(d) with winf applied to the in-window versions
// of srcs; this request implies a data (parametric) dependency.
//
//	WRITE(Key d, WindowFun win_f*(Keys s...n, Size t))
func (b *Builder) WindowWrite(d Key, srcs []Key, size uint64, winf WindowFn) *Operation {
	op := &Operation{
		ID: NextOpID(), Kind: OpWindowWrite, Key: d, KeyID: store.Intern(d),
		SrcKeys: srcs, SrcIDs: internKeys(srcs),
		Window: size, WindowFn: winf,
	}
	b.t.AddOp(op)
	return op
}

// NDRead issues a non-deterministic read on a key determined by keyf.
//
//	READ(Fun f*, EventBlotter eb)
func (b *Builder) NDRead(keyf KeyFn, fn ReadFn) *Operation {
	op := &Operation{
		ID: NextOpID(), Kind: OpNDRead, KeyID: store.NoKeyID,
		KeyFn: keyf, ReadFn: fn,
	}
	b.t.AddOp(op)
	return op
}

// Len reports how many operations the transaction currently holds. Paired
// with Truncate it lets a wrapping operator undo a partially issued
// STATE_ACCESS (the RPC front door drops an event whose inner operator
// errored mid-composition without leaking its half-built ops).
func (b *Builder) Len() int { return len(b.t.Ops) }

// Truncate discards the operations issued after the first n, returning the
// transaction to an earlier Len() point. It is only valid before the
// transaction is planned into a TPG.
func (b *Builder) Truncate(n int) {
	if n < 0 || n >= len(b.t.Ops) {
		return
	}
	for i := n; i < len(b.t.Ops); i++ {
		b.t.Ops[i] = nil
	}
	b.t.Ops = b.t.Ops[:n]
}

// NDWrite issues a non-deterministic write whose target key is determined by
// keyf and whose value is computed by valf from the values of srcs (srcs may
// be empty when the value is self-contained).
//
//	WRITE(Fun f1*, Fun f2*)
func (b *Builder) NDWrite(keyf KeyFn, srcs []Key, valf WriteFn) *Operation {
	op := &Operation{
		ID: NextOpID(), Kind: OpNDWrite, KeyID: store.NoKeyID,
		KeyFn: keyf, SrcKeys: srcs, SrcIDs: internKeys(srcs), WriteFn: valf,
	}
	b.t.AddOp(op)
	return op
}
