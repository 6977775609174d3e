// Command msbench is MorphStream's end-to-end benchmark. It drives the
// system exactly as a user does — the public morphstream package, the public
// client package and the real cmd/morphserve binary as a child process — on
// four named workloads, checks every output against its own serial oracle,
// and prints each metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
)

// environment is where a run finds the checkout and leaves its files.
type environment struct {
	home       string // the benchmark's own directory
	outDir     string // home/out: binaries, WAL directories, traces, logs
	self       string // this executable
	morphserve string // the built server binary
	wd         *watchdog
}

func newEnvironment(workloadName string) (*environment, error) {
	home := os.Getenv("MSBENCH_HOME")
	if home == "" {
		home = "."
	}
	home, err := filepath.Abs(home)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(home, "..", "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not the benchmark directory of a MorphStream checkout: %w", home, err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	env := &environment{
		home: home, outDir: filepath.Join(home, "out"), self: self,
		morphserve: filepath.Join(home, "out", "bin", "morphserve"),
	}
	if err := os.MkdirAll(filepath.Dir(env.morphserve), 0o755); err != nil {
		return nil, err
	}
	env.wd = &watchdog{
		workload: workloadName, outDir: env.outDir,
		progress: func() (int64, int64) { return 0, 0 },
	}
	return env, nil
}

// goBuild builds the package pkg, seen from dir, into out. Building is never
// inside a timed phase.
func (env *environment) goBuild(out, dir, pkg, tags string) error {
	args := []string{"build", "-o", out}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	cmd := exec.Command("go", append(args, pkg)...)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, b)
	}
	return nil
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run (see BENCHMARK.json), or all")
		seed         = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds      = flag.Int("seconds", 24, "length of the measured phases of one run")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		repeat       = flag.Int("repeat", 1, "with -workload all: untraced runs per workload (seed, seed+1, ...)")
		out          = flag.String("o", "", "with -workload all: write the suite document here instead of standard output")
		cmp          = flag.Bool("compare", false, "compare two suite documents: msbench -compare a.json b.json")
		setup        = flag.Bool("setup-only", false, "internal: time one set-up in this fresh process and exit")
	)
	flag.Parse()
	env, err := newEnvironment(*workloadName)
	if err == nil {
		switch {
		case *cmp:
			if flag.NArg() != 2 {
				err = fmt.Errorf("-compare needs two suite documents")
			} else {
				err = compare(env, flag.Arg(0), flag.Arg(1))
			}
		case *workloadName == "all":
			err = runSuite(env, *seed, *seconds, *repeat, *out)
		default:
			err = run(env, *workloadName, *seed, *seconds, *trace == 1, *setup)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}

// run is one run of one workload in this process: the command of
// BENCHMARK.json. Its last line of standard output is the result.
func run(env *environment, workloadName string, seed int64, seconds int, traced, setup bool) error {
	w, ok := findWorkload(workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	if setup {
		return setupOnly(env, w, seed)
	}
	root := filepath.Join(env.home, "..")
	if w.Kind == kindRPC {
		if err := env.goBuild(env.morphserve, root, "./cmd/morphserve", ""); err != nil {
			return err
		}
	}
	if traced && !probesBuilt {
		// The layer probes import morphstream/internal/...; they live in a
		// second binary so that this one keeps building whatever happens to
		// the internals. Without them the traced run still reports every
		// metric the public counters support.
		probed := filepath.Join(env.outDir, "bin", "msbench-probes")
		if err := env.goBuild(probed, env.home, ".", "probes"); err != nil {
			fmt.Fprintf(os.Stderr, "msbench: layer probes do not build, their metrics read -1:\n%v\n", err)
		} else if err := syscall.Exec(probed, append([]string{probed}, os.Args[1:]...), os.Environ()); err != nil {
			return fmt.Errorf("exec %s: %w", probed, err)
		}
	}

	measure, file := runEndToEnd, ".e2e.json"
	if traced {
		measure, file = runTraced, ".layers.json"
	}
	m, err := measure(env, w, seed, seconds)
	env.wd.stop()
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(m.Diagnostics) {
		fmt.Fprintf(os.Stderr, "%-32s %g\n", k, m.Diagnostics[k])
	}
	if b, err := json.Marshal(m); err == nil {
		os.WriteFile(filepath.Join(env.outDir, w.Name+file), b, 0o644)
	}
	printResult(m.result)
	if !m.Correct {
		os.Exit(3)
	}
	return nil
}
