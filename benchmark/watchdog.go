package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// watchdog makes a run hang-proof. Every phase arms a deadline of twice its
// nominal length; on expiry the goroutines of this process (and, through
// SIGQUIT, of its server child) are dumped to out/<workload>.hang.txt, every
// event still in flight is counted as failed, the result is printed, and the
// process exits non-zero. A livelock in the engine thus shows up as failed
// operations in a finished run, not as an eaten timeout.
type watchdog struct {
	workload string
	outDir   string
	// progress reports the events attempted and delivered so far.
	progress func() (attempted, delivered int64)

	mu       sync.Mutex
	timer    *time.Timer
	children []*exec.Cmd
}

// phase announces the next phase and its nominal length.
func (wd *watchdog) phase(name string, nominal time.Duration) {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if wd.timer != nil {
		wd.timer.Stop()
	}
	wd.timer = time.AfterFunc(2*nominal, func() { wd.hang(name, nominal) })
}

// stop disarms the watchdog at the end of the run.
func (wd *watchdog) stop() {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if wd.timer != nil {
		wd.timer.Stop()
	}
}

// adopt registers a child process to be dumped and killed on a hang.
func (wd *watchdog) adopt(cmd *exec.Cmd) {
	wd.mu.Lock()
	wd.children = append(wd.children, cmd)
	wd.mu.Unlock()
}

func (wd *watchdog) hang(phase string, nominal time.Duration) {
	path := filepath.Join(wd.outDir, wd.workload+".hang.txt")
	if f, err := os.Create(path); err == nil {
		fmt.Fprintf(f, "workload %s: phase %q still running after twice its nominal %s\n\n", wd.workload, phase, nominal)
		pprof.Lookup("goroutine").WriteTo(f, 2)
		f.Close()
	}
	wd.mu.Lock()
	for _, c := range wd.children {
		// The server's own dump goes to its log, next to the hang file.
		c.Process.Signal(syscall.SIGQUIT)
	}
	time.Sleep(500 * time.Millisecond)
	for _, c := range wd.children {
		c.Process.Kill()
		c.Wait()
	}
	wd.mu.Unlock()

	attempted, delivered := wd.progress()
	fmt.Fprintf(os.Stderr, "msbench: %s: phase %q hung; goroutine dump in %s\n", wd.workload, phase, path)
	printResult(result{Attempted: max(attempted, 1), Failed: max(attempted-delivered, 1), Metrics: map[string]metric{}})
	os.Exit(3)
}
