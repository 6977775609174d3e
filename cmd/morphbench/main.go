// Command morphbench regenerates the tables and figures of the paper's
// evaluation section (Section 8). Each experiment prints the same
// rows/series the paper reports, plus a "paper shape" note recording what
// to compare against.
//
// Usage:
//
//	morphbench -exp fig11 [-scale 0.25] [-threads N]
//	morphbench -exp all
//	morphbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"morphstream/internal/harness"
	"morphstream/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig11..fig21b, fig23, fig25) or 'all'")
		scale   = flag.Float64("scale", 0.25, "workload scale factor (1.0 = paper-sized Table 6 defaults)")
		threads = flag.Int("threads", harness.Threads(), "executor threads")
		list    = flag.Bool("list", false, "list available experiments")
		quick   = flag.Bool("quick", false, "CI smoke: one tiny fig11 slice, non-zero exit on failure")
		admin   = flag.String("admin", "", "telemetry HTTP address for runtime metrics and pprof during runs, e.g. :9090 (empty = off)")
	)
	flag.Parse()

	if *admin != "" {
		// Experiments build their own engines, so the registry here carries
		// Go runtime metrics (heap, GC, goroutines) and pprof — enough to
		// profile a long experiment from outside the process.
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntime(reg)
		adm, bound, err := telemetry.Serve(*admin, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "admin:", err)
			os.Exit(1)
		}
		defer adm.Close()
		fmt.Printf("(admin endpoint on %s: /metrics /healthz /debug/pprof)\n", bound)
	}

	if *quick {
		start := time.Now()
		report := harness.Fig11(harness.Scale(0.02), 2)
		if report == nil || len(report.Rows) == 0 {
			fmt.Fprintln(os.Stderr, "quick smoke: fig11 produced no rows")
			os.Exit(1)
		}
		fmt.Println(report.String())
		fmt.Printf("(quick smoke completed in %v)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	s := harness.Scale(*scale)
	experiments := map[string]func() *harness.Report{
		"fig11":  func() *harness.Report { return harness.Fig11(s, *threads) },
		"fig12":  func() *harness.Report { return harness.Fig12(s, *threads) },
		"fig13":  func() *harness.Report { return harness.Fig13(s, *threads) },
		"fig14":  func() *harness.Report { return harness.Fig14(s, *threads) },
		"fig15":  func() *harness.Report { return harness.Fig15(s, *threads) },
		"fig16a": func() *harness.Report { return harness.Fig16a(s, *threads) },
		"fig16b": func() *harness.Report { return harness.Fig16b(s, *threads) },
		"fig17":  func() *harness.Report { return harness.Fig17(s, *threads) },
		"fig18":  func() *harness.Report { return harness.Fig18(s, *threads) },
		"fig19":  func() *harness.Report { return harness.Fig19(s, *threads) },
		"fig20":  func() *harness.Report { return harness.Fig20(s, *threads) },
		"fig21a": func() *harness.Report { return harness.Fig21a(s, *threads) },
		"fig21b": func() *harness.Report { return harness.Fig21b(s, 8) },
		"fig23":  func() *harness.Report { return harness.Fig23(*threads) },
		"fig25":  func() *harness.Report { return harness.Fig25(*threads) },
	}

	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, n := range names {
			fmt.Println("  ", n)
		}
		if *exp == "" {
			os.Exit(0)
		}
	}

	run := func(name string) {
		fn, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", name)
			os.Exit(1)
		}
		start := time.Now()
		report := fn()
		fmt.Println(report.String())
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, n := range names {
			run(n)
		}
		return
	}
	run(*exp)
}
