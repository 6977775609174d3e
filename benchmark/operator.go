package main

import (
	"time"

	"morphstream"
)

// operator expresses the generated events in MorphStream's three-step
// programming model, through the public API only: PreProcess parks the event
// in the blotter, StateAccess composes its writes, PostProcess reports the
// outcome. Its semantics are the serial oracle's.
type operator struct {
	names []string
	reads int
	// spin is the UDF complexity C, burnt inside every grep-sum write.
	spin time.Duration
	// post receives every event's outcome, in stream order, on the engine's
	// executor goroutine.
	post func(e *event, aborted bool)
}

func newOperator(w workload, names []string, post func(*event, bool)) *operator {
	return &operator{names: names, reads: w.Reads, spin: time.Duration(w.SpinUS) * time.Microsecond, post: post}
}

func (o *operator) PreProcess(ev *morphstream.Event) (*morphstream.EventBlotter, error) {
	eb := morphstream.NewEventBlotter()
	eb.Params["e"] = ev.Data
	return eb, nil
}

func (o *operator) StateAccess(eb *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
	e := eb.Params["e"].(*event)
	switch e.Kind {
	case opDeposit:
		for j := 0; j < int(e.N); j++ {
			k, amt, fail := o.names[e.Key[j]], e.Amt[j], e.Forced && j == 0
			b.Write(k, []morphstream.Key{k}, func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
				if fail {
					return nil, morphstream.ErrAbort
				}
				return src[0].(int64) + amt, nil
			})
		}
	case opTransfer:
		for p := 0; p < int(e.N); p++ {
			from, to := o.names[e.Key[2*p]], o.names[e.Key[2*p+1]]
			amt, fail := e.Amt[p], e.Forced && p == 0
			b.Write(from, []morphstream.Key{from}, func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
				bal := src[0].(int64)
				if fail || bal < amt {
					return nil, morphstream.ErrAbort
				}
				return bal - amt, nil
			})
			b.Write(to, []morphstream.Key{from, to}, func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
				if src[0].(int64) < amt {
					return nil, morphstream.ErrAbort
				}
				return src[1].(int64) + amt, nil
			})
		}
	case opGrepSum:
		for j := 0; j < int(e.N); j++ {
			srcs := make([]morphstream.Key, o.reads)
			for i := range srcs {
				srcs[i] = o.names[e.Src[3*j+i]]
			}
			amt, fail := e.Amt[j], e.Forced && j == 0
			b.Write(o.names[e.Key[j]], srcs, func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
				spin(o.spin)
				if fail {
					return nil, morphstream.ErrAbort
				}
				sum := amt
				for _, v := range src {
					sum += v.(int64)
				}
				return sum % grepSumMod, nil
			})
		}
	}
	return nil
}

func (o *operator) PostProcess(ev *morphstream.Event, _ *morphstream.EventBlotter, aborted bool) error {
	o.post(ev.Data.(*event), aborted)
	return nil
}

// spin busy-waits for d: UDF work that keeps its processor, as a real
// computation would.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	for start := time.Now(); time.Since(start) < d; {
	}
}
