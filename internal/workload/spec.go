// Package workload implements the benchmark workloads of the paper's
// evaluation (Section 8.1): StreamingLedger (SL), GrepSum (GS) with
// windowed and non-deterministic variants, and Toll Processing (TP), plus
// the dynamic multi-phase workload of Section 8.2.2.
//
// Workloads are expressed as system-neutral transaction specs so that
// MorphStream and every baseline execute byte-identical logic: a spec
// carries semantic op kinds (deposit, transfer, grep-sum, toll, ...) whose
// canonical evaluation lives in Eval. The six tunable characteristics of
// Table 6 — state-access skew θ, abort ratio a, transaction length l, UDF
// complexity C, multi-state accesses r, and transactions per punctuation
// T — are generator parameters.
package workload

import (
	"fmt"
	"sync"
	"time"

	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// Key aliases the store key type.
type Key = store.Key

// FnKind names the canonical UDF semantics of one operation.
type FnKind int8

const (
	// FnDeposit: dst += Amount. Fails when forced.
	FnDeposit FnKind = iota
	// FnTransferDebit: dst -= Amount, failing on insufficient balance.
	FnTransferDebit
	// FnTransferCredit: dst += Amount guarded by the sender's balance
	// (sources: sender, dst).
	FnTransferCredit
	// FnGrepSum: dst = sum(sources) (the GS benchmark's grep-and-sum).
	FnGrepSum
	// FnRead: plain read of Key into the blotter.
	FnRead
	// FnWindowSum: window read/write summing the in-window versions of
	// the sources.
	FnWindowSum
	// FnTollUpdate: exponential moving average of a road segment's speed.
	FnTollUpdate
	// FnTollCalc: derive a vehicle's toll from a segment statistic
	// (sources: segment; dst: vehicle account).
	FnTollCalc
	// FnDepositReceipt: dst += Amount, depositing the post-balance into the
	// blotter: a plain self-sourced write with a per-event result.
	FnDepositReceipt
)

// OpSpec describes one atomic state access.
type OpSpec struct {
	Fn     FnKind
	Key    Key   // target state (ignored for ND ops)
	Srcs   []Key // parametric sources
	Amount int64
	// Window is the event-time window size for FnWindowSum.
	Window uint64
	// WindowWrite distinguishes window writes from window reads.
	WindowWrite bool
	// ND marks the target key as non-deterministic: resolved at execution
	// time as NDKeyOf(ts, NDSpace).
	ND      bool
	NDSpace int
	// Forced injects a deterministic consistency violation, aborting the
	// transaction regardless of state.
	Forced bool
	// DelayUS busy-spins inside the UDF to model complexity C.
	DelayUS int
}

// TxnSpec describes one state transaction.
type TxnSpec struct {
	ID    int64
	TS    uint64
	Group int
	Ops   []OpSpec
}

// Batch is one punctuation's worth of transactions plus the initial state.
type Batch struct {
	Specs []TxnSpec
	// State maps every key to its initial balance/value.
	State map[Key]int64
}

// keyNames caches the canonical key strings: generators render the same
// "k<i>" names millions of times per batch, and the cache also keeps the
// interned-key working set identical across runs.
var keyNames struct {
	mu    sync.RWMutex
	names []Key
}

// KeyName renders the canonical key for index i.
func KeyName(i int) Key {
	if i < 0 {
		return Key(fmt.Sprintf("k%d", i))
	}
	keyNames.mu.RLock()
	if i < len(keyNames.names) {
		k := keyNames.names[i]
		keyNames.mu.RUnlock()
		return k
	}
	keyNames.mu.RUnlock()
	keyNames.mu.Lock()
	for n := len(keyNames.names); n <= i; n++ {
		keyNames.names = append(keyNames.names, Key(fmt.Sprintf("k%d", n)))
	}
	k := keyNames.names[i]
	keyNames.mu.Unlock()
	return k
}

// NDKeyOf is the canonical non-deterministic key resolution: a function of
// the executing transaction's timestamp, deterministic for replay but
// unknown at planning time.
func NDKeyOf(ts uint64, space int) Key {
	if space <= 0 {
		space = 1
	}
	return KeyName(int(ts*2654435761) % space)
}

// Spin busy-waits for roughly d, modelling UDF computation complexity C.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Eval computes the canonical result of a non-window operation given its
// source values, in declaration order. ok=false aborts the transaction.
// Every system under test (MorphStream, S-Store, TStream, the SPE
// baseline, and the serial oracle) funnels through this single definition.
func Eval(op OpSpec, src []int64) (result int64, ok bool) {
	Spin(time.Duration(op.DelayUS) * time.Microsecond)
	if op.Forced {
		return 0, false
	}
	switch op.Fn {
	case FnDeposit, FnDepositReceipt:
		return src[0] + op.Amount, true
	case FnTransferDebit:
		if src[0] < op.Amount {
			return 0, false
		}
		return src[0] - op.Amount, true
	case FnTransferCredit:
		if src[0] < op.Amount {
			return 0, false
		}
		return src[1] + op.Amount, true
	case FnGrepSum:
		var sum int64
		for _, v := range src {
			sum += v
		}
		return sum + op.Amount, true
	case FnRead:
		return src[0], true
	case FnTollUpdate:
		return (src[0]*7 + op.Amount) / 8, true
	case FnTollCalc:
		return src[0]/10 + op.Amount, true
	}
	return 0, false
}

// EvalWindow computes the canonical result of a window operation over the
// in-window versions of each source.
func EvalWindow(op OpSpec, src [][]store.Version) (int64, bool) {
	Spin(time.Duration(op.DelayUS) * time.Microsecond)
	if op.Forced {
		return 0, false
	}
	var sum int64
	for _, versions := range src {
		for _, v := range versions {
			sum += v.Value.(int64)
		}
	}
	return sum, true
}

// Materialize instantiates fresh executable transactions from the specs.
// Each call returns independent transactions (they carry execution state)
// and a freshly preloaded table.
func (b *Batch) Materialize() ([]*txn.Transaction, *store.Table) {
	table := store.NewTable()
	for k, v := range b.State {
		table.Preload(k, v)
	}
	txns := make([]*txn.Transaction, 0, len(b.Specs))
	for _, spec := range b.Specs {
		txns = append(txns, spec.Materialize())
	}
	return txns, table
}

// Materialize builds one executable transaction from the spec.
func (s TxnSpec) Materialize() *txn.Transaction {
	t := txn.NewTransaction(s.ID, s.TS)
	t.Group = s.Group
	s.Issue(txn.Build(t))
	return t
}

// Issue composes the spec's state accesses on an existing transaction
// builder. It is the StateAccess half of Materialize, split out so the
// same canonical specs can also drive an engine-level Operator (the engine
// allocates the transaction and timestamp itself).
func (s TxnSpec) Issue(bld *txn.Builder) {
	for i := range s.Ops {
		op := s.Ops[i] // copy: closures must not share the loop variable
		switch {
		case op.Fn == FnRead && !op.ND:
			bld.Read(op.Key, func(ctx *txn.Ctx, v txn.Value) error {
				r, ok := Eval(op, []int64{v.(int64)})
				if !ok {
					return txn.ErrAbort
				}
				ctx.AddResult(r)
				return nil
			})
		case op.Fn == FnRead && op.ND:
			bld.NDRead(func(ctx *txn.Ctx) (Key, error) {
				return NDKeyOf(ctx.TS, op.NDSpace), nil
			}, func(ctx *txn.Ctx, v txn.Value) error {
				r, ok := Eval(op, []int64{v.(int64)})
				if !ok {
					return txn.ErrAbort
				}
				ctx.AddResult(r)
				return nil
			})
		case op.Fn == FnWindowSum && op.WindowWrite:
			bld.WindowWrite(op.Key, op.Srcs, op.Window, windowFn(op))
		case op.Fn == FnWindowSum:
			bld.WindowRead(op.Key, op.Window, windowFn(op))
		case op.ND:
			bld.NDWrite(func(ctx *txn.Ctx) (Key, error) {
				return NDKeyOf(ctx.TS, op.NDSpace), nil
			}, op.Srcs, writeFn(op))
		default:
			bld.Write(op.Key, op.Srcs, writeFn(op))
		}
	}
}

func writeFn(op OpSpec) txn.WriteFn {
	return func(ctx *txn.Ctx, src []txn.Value) (txn.Value, error) {
		vals := make([]int64, len(src))
		for i, v := range src {
			vals[i] = v.(int64)
		}
		r, ok := Eval(op, vals)
		if !ok {
			return nil, txn.ErrAbort
		}
		if op.Fn == FnDepositReceipt {
			ctx.AddResult(r)
		}
		return r, nil
	}
}

func windowFn(op OpSpec) txn.WindowFn {
	return func(_ *txn.Ctx, src [][]store.Version) (txn.Value, error) {
		r, ok := EvalWindow(op, src)
		if !ok {
			return nil, txn.ErrAbort
		}
		return r, nil // window reads are deposited by the executor
	}
}
