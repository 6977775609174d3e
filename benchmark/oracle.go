package main

// oracle is the serial reference the engine is checked against: it applies
// the events one at a time, in stream order, to a plain array of values.
// Every read of a transaction sees the state before that transaction (its
// operations share one timestamp), and an aborted transaction writes nothing.
type oracle struct {
	val   []int64
	reads int
}

func newOracle(w workload) *oracle {
	o := &oracle{val: make([]int64, w.Keys), reads: w.Reads}
	for i := range o.val {
		o.val[i] = initialBalance(w)
	}
	return o
}

// apply runs one transaction and reports whether it aborted.
func (o *oracle) apply(e *event) (aborted bool) {
	if e.Forced {
		return true
	}
	switch e.Kind {
	case opDeposit:
		for j := 0; j < int(e.N); j++ {
			o.val[e.Key[j]] += e.Amt[j]
		}
	case opTransfer:
		for p := 0; p < int(e.N); p++ {
			if o.val[e.Key[2*p]] < e.Amt[p] {
				return true
			}
		}
		for p := 0; p < int(e.N); p++ {
			o.val[e.Key[2*p]] -= e.Amt[p]
			o.val[e.Key[2*p+1]] += e.Amt[p]
		}
	case opGrepSum:
		var out [2]int64
		for j := 0; j < int(e.N); j++ {
			sum := e.Amt[j]
			for _, s := range e.Src[3*j : 3*j+o.reads] {
				sum += o.val[s]
			}
			out[j] = sum % grepSumMod
		}
		for j := 0; j < int(e.N); j++ {
			o.val[e.Key[j]] = out[j]
		}
	}
	return false
}
