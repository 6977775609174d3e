package main

// Ground rules of the benchmark. They are frozen: a later change is compared
// with its parent at exactly these values, so none of them is a flag.
const (
	// engineThreads is Config.Threads in-process and morphserve -threads.
	engineThreads = 2
	// punctuation is the count punctuation T: deterministic batch
	// boundaries, so the counts the engine reports repeat exactly.
	punctuation = 1024
	// cycleEvents is the length of the generated input, replayed in order
	// for as long as a phase lasts.
	cycleEvents = 262144
	// warmupEvents are sent closed-loop before any timing, so that caches
	// fill and lazy set-up finishes outside the measured phases.
	warmupEvents = 65536
	// latencyLimitMS is the limit on latency_p99_ms; slo_miss_ratio counts
	// the events over it.
	latencyLimitMS = 50.0
	// rpcClients is the number of client connections of the RPC workload,
	// rpcInflight the receipts each may have outstanding in the closed loop.
	rpcClients  = 2
	rpcInflight = 2048
	// rpcInterval is morphserve's -interval: it bounds how long a slow
	// stream can hold a batch open.
	rpcInterval = "5ms"
	// rpcBalance is every account's initial balance on morphserve.
	rpcBalance = 10000
	// slBalance is every in-process ledger account's initial balance: high
	// enough that only the forced violations abort, however long a run
	// replays the cycle, so the abort ratio does not drift with run length.
	slBalance = int64(1) << 40
	// setupSamples is how many times a run sets the system up, each time in
	// a fresh process; setup_s is their median.
	setupSamples = 5
	// saturationShare of --seconds is the closed-loop phase; the rest is
	// the paced open-loop phase.
	saturationShare = 0.4
	// probeBatches is how many batches of the cycle the layer probes replay.
	probeBatches = 64
)

// Stream kinds: which generator, operator semantics and front door a
// workload uses.
const (
	kindSL  = "sl"  // StreamingLedger, in-process
	kindGS  = "gs"  // GrepSum, in-process
	kindRPC = "rpc" // demo ledger behind cmd/morphserve
)

// workload is one set of inputs, parameterised by the symbols of the
// paper's Table 6.
type workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Keys is the number of preloaded states N.
	Keys int `json:"keys"`
	// Theta is the Zipf skew θ of state access.
	Theta float64 `json:"theta"`
	// AbortRatio is the share a of transactions with a forced violation.
	AbortRatio float64 `json:"abort_ratio"`
	// Length is the number of state accesses per transaction l.
	Length int `json:"length"`
	// Reads is the number of source states per write r.
	Reads int `json:"reads"`
	// SpinUS is the UDF complexity C in microseconds.
	SpinUS int `json:"spin_us"`
	// WAL turns the punctuation-delta WAL on (file sink, SyncPunctuation).
	WAL bool `json:"wal"`
	// RateEPS is the paced phase's frozen input rate: half the median
	// saturation throughput of three seed runs on the reference box,
	// rounded down to two significant digits.
	RateEPS float64 `json:"rate_eps"`
}

// The frozen rates come from seeds 1-3 at the commit that added the
// benchmark: median saturation throughput 104,170 / 21,606 / 82,323 / 53,360
// events/s, in the order below.
var workloads = []workload{
	{Name: "sl-uniform", Kind: kindSL, Keys: 262144, Theta: 0.2, AbortRatio: 0.01, Length: 4, Reads: 1, RateEPS: 52000},
	{Name: "gs-hot-abort", Kind: kindGS, Keys: 16384, Theta: 1.0, AbortRatio: 0.20, Length: 2, Reads: 3, SpinUS: 5, RateEPS: 10000},
	{Name: "sl-uniform-wal", Kind: kindSL, Keys: 262144, Theta: 0.2, AbortRatio: 0.01, Length: 4, Reads: 1, WAL: true, RateEPS: 41000},
	{Name: "ledger-rpc", Kind: kindRPC, Keys: 65536, Theta: 0, AbortRatio: 0.01, Length: 2, Reads: 1, RateEPS: 26000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
