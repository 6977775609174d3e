package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"morphstream/client"
)

// Transaction shapes of the generated events.
const (
	opDeposit  uint8 = iota // N unconditional credits
	opTransfer              // N debit/credit pairs, aborting on insufficient funds
	opGrepSum               // N writes, each the sum of its source states
)

// abortAmount is a transfer amount no balance can cover: how the RPC stream,
// whose payloads carry no violation flag, forces an abort.
const abortAmount = int64(1) << 50

// grepSumMod keeps grep-sum values bounded over arbitrarily long replays.
const grepSumMod = 1_000_003

// event is one generated input: a transaction over key indexes. It holds no
// pointers, so the 262,144-event cycle costs the garbage collector nothing.
type event struct {
	Kind uint8
	// N counts deposits, transfer pairs, or grep-sum writes.
	N uint8
	// Forced injects a consistency violation into the first operation, so
	// the transaction aborts whatever the state (Table 6's a).
	Forced bool
	// Key holds the target states, distinct within the event. Transfer
	// pair p debits Key[2p] and credits Key[2p+1].
	Key [4]int32
	// Src holds grep-sum write j's source states at Src[3j:3j+reads].
	Src [6]int32
	Amt [4]int64
}

// zipf draws key indexes 0..n-1 with probability proportional to
// 1/(i+1)^theta; theta 0 is uniform, 1 the classic Zipf (Table 6's θ).
type zipf struct {
	rng *rand.Rand
	n   int
	cdf []float64 // nil when uniform
}

func newZipf(rng *rand.Rand, n int, theta float64) *zipf {
	z := &zipf{rng: rng, n: n}
	if theta == 0 {
		return z
	}
	z.cdf = make([]float64, n)
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) next() int32 {
	if z.cdf == nil {
		return int32(z.rng.Intn(z.n))
	}
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if i >= z.n {
		i = z.n - 1
	}
	return int32(i)
}

// distinct fills dst with distinct draws offset by base. Operations of one
// transaction share its timestamp, so two writes to one key would collapse
// into a single version; the generators never emit that.
func (z *zipf) distinct(dst []int32, base int32) {
	for i := range dst {
	draw:
		for {
			k := base + z.next()
			for _, prev := range dst[:i] {
				if prev == k {
					continue draw
				}
			}
			dst[i] = k
			break
		}
	}
}

// genStreams generates the workload's input from the seed alone: one stream
// per producer (one generator goroutine in-process, one per client
// connection for RPC), cycleEvents events in total.
func genStreams(w workload, seed int64) [][]event {
	producers := 1
	if w.Kind == kindRPC {
		producers = rpcClients
	}
	streams := make([][]event, producers)
	for p := range streams {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(p)))
		// Each RPC connection owns a disjoint slice of the accounts, so
		// every outcome is independent of how the server interleaves them.
		span := w.Keys / producers
		z := newZipf(rng, span, w.Theta)
		base := int32(p * span)
		s := make([]event, cycleEvents/producers)
		for i := range s {
			s[i] = genEvent(w, rng, z, base)
		}
		streams[p] = s
	}
	return streams
}

func genEvent(w workload, rng *rand.Rand, z *zipf, base int32) event {
	var e event
	forced := rng.Float64() < w.AbortRatio
	switch w.Kind {
	case kindGS:
		e.Kind, e.N, e.Forced = opGrepSum, uint8(w.Length), forced
		z.distinct(e.Key[:e.N], base)
		for j := 0; j < int(e.N)*3; j++ {
			if j%3 < w.Reads {
				e.Src[j] = base + z.next()
			}
		}
		for j := 0; j < int(e.N); j++ {
			e.Amt[j] = int64(rng.Intn(10))
		}
	case kindSL:
		e.Forced = forced
		z.distinct(e.Key[:w.Length], base)
		if rng.Intn(2) == 0 {
			e.Kind, e.N = opDeposit, uint8(w.Length)
			for j := 0; j < int(e.N); j++ {
				e.Amt[j] = int64(1 + rng.Intn(100))
			}
		} else {
			e.Kind, e.N = opTransfer, uint8(w.Length/2)
			for j := 0; j < int(e.N); j++ {
				e.Amt[j] = int64(1 + rng.Intn(50))
			}
		}
	case kindRPC:
		e.N = 1
		e.Amt[0] = int64(1 + rng.Intn(50))
		switch {
		case forced:
			e.Kind, e.Amt[0] = opTransfer, abortAmount
		case rng.Intn(2) == 0:
			e.Kind = opDeposit
		default:
			e.Kind = opTransfer
		}
		z.distinct(e.Key[:2], base)
	}
	return e
}

// interleave merges the producers' streams round-robin into the single
// stream an in-process run of the same events uses.
func interleave(streams [][]event) []event {
	if len(streams) == 1 {
		return streams[0]
	}
	var out []event
	for i := range streams[0] {
		for _, s := range streams {
			out = append(out, s[i])
		}
	}
	return out
}

// streamHash fingerprints the generated input, so that two runs can show
// they measured the same events.
func streamHash(streams [][]event) uint64 {
	h := fnv.New64a()
	var buf [3 + 4*4 + 6*4 + 4*8]byte
	for _, s := range streams {
		for i := range s {
			e := &s[i]
			buf[0], buf[1], buf[2] = e.Kind, e.N, 0
			if e.Forced {
				buf[2] = 1
			}
			b := buf[3:3]
			for _, k := range e.Key {
				b = binary.LittleEndian.AppendUint32(b, uint32(k))
			}
			for _, k := range e.Src {
				b = binary.LittleEndian.AppendUint32(b, uint32(k))
			}
			for _, a := range e.Amt {
				b = binary.LittleEndian.AppendUint64(b, uint64(a))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// keyNames renders the state keys: the demo ledger's account names for the
// RPC stream (they must match morphserve's preload), "k<i>" otherwise.
func keyNames(w workload) []string {
	names := make([]string, w.Keys)
	for i := range names {
		if w.Kind == kindRPC {
			names[i] = client.AccountKey(i)
		} else {
			names[i] = fmt.Sprintf("k%06d", i)
		}
	}
	return names
}

// initialBalance is every state's preloaded value.
func initialBalance(w workload) int64 {
	switch w.Kind {
	case kindSL:
		return slBalance
	case kindRPC:
		return rpcBalance
	}
	return 10000
}
