package workload

import (
	"math/rand"
)

// Config carries the six tunable workload characteristics of paper Table 6
// plus the state size and RNG seed.
type Config struct {
	// StateSize is the number of preallocated shared states.
	StateSize int
	// Theta is the Zipf skew of state access distribution (θ).
	Theta float64
	// HotSetFraction restricts the Zipf distribution to a rotating hot
	// window of ceil(HotSetFraction*StateSize) keys, concentrating skew on
	// a small working set; 0 (or >= 1) spans the whole state.
	HotSetFraction float64
	// ChurnRatio is the per-draw probability that the hot window advances
	// by one key (wrapping around the state), modelling hot-set drift.
	// Generation stays fully deterministic under Seed.
	ChurnRatio float64
	// AbortRatio is the ratio of transactions carrying a forced
	// consistency violation (a).
	AbortRatio float64
	// Length is the number of atomic state accesses per transaction (l).
	Length int
	// ComplexityUS is the artificial UDF delay in microseconds (C).
	ComplexityUS int
	// MultiRatio is the ratio of operations with multiple state accesses,
	// controlling the number of PDs (r).
	MultiRatio float64
	// Txns is the number of transactions per punctuation (T).
	Txns int
	// Seed makes generation deterministic.
	Seed int64
	// FirstTS offsets timestamps so consecutive batches keep increasing.
	FirstTS uint64
	// InitialBalance seeds every state (default 10000).
	InitialBalance int64
}

func (c Config) fill() Config {
	if c.StateSize <= 0 {
		c.StateSize = 10000
	}
	if c.Length <= 0 {
		c.Length = 2
	}
	if c.Txns <= 0 {
		c.Txns = 10240
	}
	if c.InitialBalance == 0 {
		c.InitialBalance = 10000
	}
	if c.FirstTS == 0 {
		c.FirstTS = 1
	}
	return c
}

// DefaultSL, DefaultGS and DefaultTP reproduce the default configurations
// of paper Table 6 (θ=0.2, a=1%, C=10µs; SL l=2 r=1/2, GS l=1 r=2 T=10240,
// TP l=2 r=1 T=40960).
func DefaultSL() Config {
	return Config{Theta: 0.2, AbortRatio: 0.01, Length: 2, ComplexityUS: 10, MultiRatio: 0.5, Txns: 10240}.fill()
}

// DefaultGS returns the GrepSum default configuration.
func DefaultGS() Config {
	c := Config{Theta: 0.2, AbortRatio: 0.01, Length: 1, ComplexityUS: 10, MultiRatio: 1, Txns: 10240}.fill()
	return c
}

// DefaultTP returns the Toll Processing default configuration.
func DefaultTP() Config {
	return Config{Theta: 0.2, AbortRatio: 0.01, Length: 2, ComplexityUS: 10, MultiRatio: 0, Txns: 40960}.fill()
}

func initialState(c Config) map[Key]int64 {
	st := make(map[Key]int64, c.StateSize)
	for i := 0; i < c.StateSize; i++ {
		st[KeyName(i)] = c.InitialBalance
	}
	return st
}

// SL generates a StreamingLedger batch: a mix of deposit and transfer
// transactions over account balances (paper Fig. 1). Transfers are pairs of
// debit/credit operations with a parametric dependency; forced violations
// model the aborting ratio.
func SL(c Config) *Batch {
	c = c.fill()
	rng := rand.New(rand.NewSource(c.Seed))
	z := newSampler(rng, c)
	b := &Batch{State: initialState(c)}
	ts := c.FirstTS
	for i := 0; i < c.Txns; i++ {
		spec := TxnSpec{ID: int64(i + 1), TS: ts}
		forced := rng.Float64() < c.AbortRatio
		// Target keys within one transaction must be distinct: operations
		// of the same transaction share its timestamp, so two writes to one
		// key would collapse into a single version.
		pick := distinctPicker(z, c.StateSize)
		// A transaction is l/2 transfers (l state accesses), or l deposits
		// when the coin says deposit-only.
		if rng.Intn(2) == 0 {
			for j := 0; j < c.Length; j++ {
				k := pick()
				spec.Ops = append(spec.Ops, OpSpec{
					Fn: FnDeposit, Key: k, Srcs: []Key{k},
					Amount:  int64(1 + rng.Intn(100)),
					Forced:  forced && j == 0,
					DelayUS: c.ComplexityUS,
				})
			}
		} else {
			pairs := c.Length / 2
			if pairs < 1 {
				pairs = 1
			}
			for j := 0; j < pairs; j++ {
				s := pick()
				r := pick()
				amount := int64(1 + rng.Intn(50))
				spec.Ops = append(spec.Ops,
					OpSpec{
						Fn: FnTransferDebit, Key: s, Srcs: []Key{s},
						Amount: amount, Forced: forced && j == 0, DelayUS: c.ComplexityUS,
					},
					OpSpec{
						Fn: FnTransferCredit, Key: r, Srcs: []Key{s, r},
						Amount: amount, DelayUS: c.ComplexityUS,
					})
			}
		}
		b.Specs = append(b.Specs, spec)
		ts++
	}
	return b
}

// distinctPicker draws Zipf-distributed keys without repetition within one
// transaction: past a bounded retry budget it falls back to a sequential
// fill, and once the key space is exhausted it reuses keys round-robin
// instead of panicking — a later write at the same timestamp replaces the
// earlier version, which every execution path (and the serial oracle)
// handles identically, so generation stays deterministic and total even
// when the transaction length exceeds the state size.
func distinctPicker(z *sampler, n int) func() Key {
	used := map[int]bool{}
	seq, wrap := 0, 0
	return func() Key {
		for tries := 0; tries < 64; tries++ {
			i := z.Next()
			if !used[i] {
				used[i] = true
				return KeyName(i)
			}
		}
		for ; seq < n; seq++ {
			if !used[seq] {
				used[seq] = true
				return KeyName(seq)
			}
		}
		k := KeyName(wrap % n)
		wrap++
		return k
	}
}

// HK generates the hot-key skew workload: receipt deposits (self-sourced
// writes that blot their post balance, so long same-key chains carry a
// result per event), interleaved with transfer pairs whose cross-key
// parametric dependency links the chains. MultiRatio is the
// transfer-transaction ratio (0 = pure deposits); skew comes from Theta plus
// the HotSetFraction/ChurnRatio knobs; AbortRatio forces violations as
// usual.
func HK(c Config) *Batch {
	c = c.fill()
	rng := rand.New(rand.NewSource(c.Seed))
	z := newSampler(rng, c)
	b := &Batch{State: initialState(c)}
	ts := c.FirstTS
	for i := 0; i < c.Txns; i++ {
		spec := TxnSpec{ID: int64(i + 1), TS: ts}
		forced := rng.Float64() < c.AbortRatio
		pick := distinctPicker(z, c.StateSize)
		if c.MultiRatio > 0 && rng.Float64() < c.MultiRatio {
			s := pick()
			r := pick()
			amount := int64(1 + rng.Intn(50))
			spec.Ops = append(spec.Ops,
				OpSpec{
					Fn: FnTransferDebit, Key: s, Srcs: []Key{s},
					Amount: amount, Forced: forced, DelayUS: c.ComplexityUS,
				},
				OpSpec{
					Fn: FnTransferCredit, Key: r, Srcs: []Key{s, r},
					Amount: amount, DelayUS: c.ComplexityUS,
				})
		} else {
			for j := 0; j < c.Length; j++ {
				k := pick()
				spec.Ops = append(spec.Ops, OpSpec{
					Fn: FnDepositReceipt, Key: k, Srcs: []Key{k},
					Amount:  int64(1 + rng.Intn(100)),
					Forced:  forced && j == 0,
					DelayUS: c.ComplexityUS,
				})
			}
		}
		b.Specs = append(b.Specs, spec)
		ts++
	}
	return b
}

// GS generates a GrepSum batch: every transaction greps r random states,
// sums them, and writes the result to a target state (paper Section 7.1,
// Algorithm 3's deterministic base form).
func GS(c Config) *Batch {
	c = c.fill()
	rng := rand.New(rand.NewSource(c.Seed))
	z := newSampler(rng, c)
	b := &Batch{State: initialState(c)}
	ts := c.FirstTS
	for i := 0; i < c.Txns; i++ {
		spec := TxnSpec{ID: int64(i + 1), TS: ts}
		forced := rng.Float64() < c.AbortRatio
		pick := distinctPicker(z, c.StateSize)
		for j := 0; j < c.Length; j++ {
			dst := pick()
			nsrc := 1
			if rng.Float64() < c.MultiRatio {
				nsrc = 2
			}
			srcs := make([]Key, 0, nsrc)
			for len(srcs) < nsrc {
				srcs = append(srcs, KeyName(z.Next()))
			}
			spec.Ops = append(spec.Ops, OpSpec{
				Fn: FnGrepSum, Key: dst, Srcs: srcs,
				Amount:  int64(rng.Intn(10)),
				Forced:  forced && j == 0,
				DelayUS: c.ComplexityUS,
			})
		}
		b.Specs = append(b.Specs, spec)
		ts++
	}
	return b
}

// GSWindowConfig extends GS with windowed reads (Section 8.2.4): one
// reading request every ReadEvery update events, each aggregating ReadKeys
// random states over an event-time window of WindowSize.
type GSWindowConfig struct {
	Config
	WindowSize uint64
	ReadEvery  int
	ReadKeys   int
}

// GSWindow generates the tumbling-window GrepSum workload of Fig. 14.
func GSWindow(c GSWindowConfig) *Batch {
	cc := c.Config.fill()
	if c.ReadEvery <= 0 {
		c.ReadEvery = 100
	}
	if c.ReadKeys <= 0 {
		c.ReadKeys = 100
	}
	if c.WindowSize == 0 {
		c.WindowSize = 1000
	}
	rng := rand.New(rand.NewSource(cc.Seed))
	z := newSampler(rng, cc)
	b := &Batch{State: initialState(cc)}
	ts := cc.FirstTS
	for i := 0; i < cc.Txns; i++ {
		spec := TxnSpec{ID: int64(i + 1), TS: ts}
		if c.ReadEvery > 0 && i%c.ReadEvery == c.ReadEvery-1 {
			// Window-read transaction: one window read per grepped state,
			// each summing that state's versions over the past WindowSize
			// event-time units (the paper's reading request accesses 100
			// random states per window query).
			for j := 0; j < c.ReadKeys; j++ {
				k := KeyName(z.Next())
				spec.Ops = append(spec.Ops, OpSpec{
					Fn: FnWindowSum, Key: k, Srcs: []Key{k},
					Window: c.WindowSize, DelayUS: cc.ComplexityUS,
				})
			}
		} else {
			// Update transaction: write-only random state update.
			k := KeyName(z.Next())
			spec.Ops = append(spec.Ops, OpSpec{
				Fn: FnDeposit, Key: k, Srcs: []Key{k},
				Amount: int64(rng.Intn(10)), DelayUS: cc.ComplexityUS,
			})
		}
		b.Specs = append(b.Specs, spec)
		ts++
	}
	return b
}

// GSNDConfig extends GS with non-deterministic state accesses
// (Section 8.2.5, Algorithm 3): NDAccesses transactions per batch write to
// a state resolved by a UDF at execution time.
type GSNDConfig struct {
	Config
	NDAccesses int
}

// GSND generates the non-deterministic GrepSum workload of Fig. 15.
func GSND(c GSNDConfig) *Batch {
	cc := c.Config.fill()
	rng := rand.New(rand.NewSource(cc.Seed))
	z := newSampler(rng, cc)
	b := &Batch{State: initialState(cc)}
	ts := cc.FirstTS
	every := 0
	if c.NDAccesses > 0 {
		every = cc.Txns / c.NDAccesses
		if every < 1 {
			every = 1
		}
	}
	for i := 0; i < cc.Txns; i++ {
		spec := TxnSpec{ID: int64(i + 1), TS: ts}
		if every > 0 && i%every == every-1 {
			// Non-deterministic write: target key resolved through a UDF
			// of the timestamp; value is the sum of two grepped states.
			spec.Ops = append(spec.Ops, OpSpec{
				Fn: FnGrepSum, ND: true, NDSpace: cc.StateSize,
				Srcs:    []Key{KeyName(z.Next()), KeyName(z.Next())},
				DelayUS: cc.ComplexityUS,
			})
		} else {
			dst := KeyName(z.Next())
			spec.Ops = append(spec.Ops, OpSpec{
				Fn: FnGrepSum, Key: dst, Srcs: []Key{KeyName(z.Next())},
				Amount: int64(rng.Intn(10)), DelayUS: cc.ComplexityUS,
			})
		}
		b.Specs = append(b.Specs, spec)
		ts++
	}
	return b
}

// TPConfig parameterises Toll Processing with the two transaction groups
// of Section 8.2.3: group 0 has skewed access and a high abort ratio,
// group 1 is uniform with rare aborts. Key ranges are disjoint.
type TPConfig struct {
	Config
	Group0Theta float64
	Group0Abort float64
	Group1Theta float64
	Group1Abort float64
}

// DefaultTPGroups returns the nested-strategy TP setup of Fig. 13.
func DefaultTPGroups() TPConfig {
	return TPConfig{
		Config:      DefaultTP(),
		Group0Theta: 0.9, Group0Abort: 0.3,
		Group1Theta: 0.0, Group1Abort: 0.001,
	}
}

// TP generates a Toll Processing batch: position reports update per-segment
// speed statistics (FnTollUpdate) and toll notifications charge vehicle
// accounts from segment statistics (FnTollCalc, a cross-state dependency).
// Transactions alternate between the two groups; group g uses the key range
// [g*StateSize/2, (g+1)*StateSize/2).
func TP(c TPConfig) *Batch {
	cc := c.Config.fill()
	rng := rand.New(rand.NewSource(cc.Seed))
	half := cc.StateSize / 2
	if half < 2 {
		half = 2
	}
	z0 := NewZipf(rng, half/2, c.Group0Theta) // segments of group 0
	z1 := NewZipf(rng, half/2, c.Group1Theta) // segments of group 1
	b := &Batch{State: make(map[Key]int64, 2*half)}
	for i := 0; i < 2*half; i++ {
		b.State[KeyName(i)] = cc.InitialBalance
	}
	ts := cc.FirstTS
	for i := 0; i < cc.Txns; i++ {
		group := i % 2
		var seg, veh Key
		var forced bool
		if group == 0 {
			seg = KeyName(z0.Next())
			veh = KeyName(half/2 + rng.Intn(half/2))
			forced = rng.Float64() < c.Group0Abort
		} else {
			seg = KeyName(half + z1.Next())
			veh = KeyName(half + half/2 + rng.Intn(half/2))
			forced = rng.Float64() < c.Group1Abort
		}
		spec := TxnSpec{ID: int64(i + 1), TS: ts, Group: group}
		spec.Ops = append(spec.Ops,
			OpSpec{
				Fn: FnTollUpdate, Key: seg, Srcs: []Key{seg},
				Amount: int64(30 + rng.Intn(60)), Forced: forced,
				DelayUS: cc.ComplexityUS,
			},
			OpSpec{
				Fn: FnTollCalc, Key: veh, Srcs: []Key{seg},
				Amount: int64(rng.Intn(5)), DelayUS: cc.ComplexityUS,
			})
		b.Specs = append(b.Specs, spec)
		ts++
	}
	return b
}
