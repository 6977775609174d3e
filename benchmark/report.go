package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract with its caller: the last line of
// standard output is exactly this object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		// Only a NaN or infinite metric can get here: a bug worth a loud exit.
		fmt.Fprintln(os.Stderr, "msbench: result not encodable:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// withUnits pairs every metric named in units with its value.
func withUnits(units map[string]string, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{values[name], unit}
	}
	return out
}
