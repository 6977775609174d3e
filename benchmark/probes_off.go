//go:build !probes

package main

// probesBuilt reports whether benchmark/probe — the one package that
// imports morphstream/internal/... — is compiled into this binary. The
// end-to-end path never needs it; the traced run builds a second binary with
// -tags probes and falls back to this one if that build fails.
const probesBuilt = false

func runProbes(*environment, workload, []event, []string, [][]event, *tracer) (map[string]float64, error) {
	return nil, nil
}
