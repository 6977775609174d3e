// Command morphserve serves a MorphStream engine over TCP: the framed
// request/receipt protocol of docs/PROTOCOL.md, with the demo account
// ledger registered as operator "transfer" and its accounts preloaded.
//
//	morphserve -addr :7333 -threads 8 -accounts 100000
//
// Clients connect with the morphstream/client package (or any
// implementation of the protocol spec). SIGINT/SIGTERM triggers a graceful
// drain: every ingested event executes and its receipt is delivered, every
// event read but not yet ingested is explicitly failed, then the server
// exits.
//
// With -admin the server also exposes the telemetry endpoint: /metrics
// (Prometheus text), /statusz (JSON engine snapshot), /healthz (flips to
// NOT_SERVING the moment a drain begins), and /debug/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/rpcserve"
	"morphstream/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":7333", "listen address")
		threads   = flag.Int("threads", 4, "executor threads")
		punctuate = flag.Int("punctuate", 4096, "punctuation batch size (events)")
		interval  = flag.Duration("interval", 50*time.Millisecond, "bound on how long a batch stays open; batches seal earlier whenever the executor is idle (0 = count-only punctuation: every batch waits for -punctuate events)")
		walDir    = flag.String("wal", "", "WAL directory (empty = durability off)")
		accounts  = flag.Int("accounts", 100000, "demo ledger accounts to preload")
		balance   = flag.Int64("balance", 10000, "initial balance per account")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
		quiet     = flag.Bool("quiet", false, "suppress per-session log lines")
		admin     = flag.String("admin", "", "telemetry HTTP address, e.g. :9090 (empty = off)")
	)
	flag.Parse()

	cfg := rpcserve.Config{
		Engine: engine.Config{
			Threads:           *threads,
			Cleanup:           true,
			PunctuateEvery:    *punctuate,
			PunctuateInterval: *interval,
		},
	}
	if *walDir != "" {
		cfg.Engine.Durability = &engine.Durability{Dir: *walDir}
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	var reg *telemetry.Registry
	if *admin != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterRuntime(reg)
		cfg.Engine.Telemetry = reg
	}

	srv := rpcserve.New(cfg)
	srv.Register(rpcserve.LedgerOperatorName, rpcserve.LedgerOperator())
	rpcserve.PreloadAccounts(srv.Engine().Table(), *accounts, *balance)

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "morphserve: %v\n", err)
		os.Exit(1)
	}

	var adm *telemetry.Admin
	if *admin != "" {
		a, bound, err := telemetry.Serve(*admin, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "morphserve: admin: %v\n", err)
			os.Exit(1)
		}
		adm = a
		adm.SetStatus(func() any {
			return map[string]any{
				"pipeline": srv.Engine().PipelineStats(),
				"sessions": srv.Sessions(),
				"threads":  *threads,
			}
		})
		defer adm.Close()
		log.Printf("morphserve: admin endpoint on %s (/metrics /statusz /healthz /debug/pprof)", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("morphserve: %s — draining (bound %s)", s, *drainWait)
		// The health probe flips to NOT_SERVING before the drain starts, so
		// a load balancer scraping /healthz stops routing ahead of the
		// listener closing.
		adm.SetServing(false)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("morphserve: drain: %v", err)
		}
	}()

	log.Printf("morphserve: listening on %s (threads=%d punctuate=%d interval=%s wal=%q)",
		*addr, *threads, *punctuate, *interval, *walDir)
	if err := srv.Serve(lis); err != nil {
		fmt.Fprintf(os.Stderr, "morphserve: %v\n", err)
		os.Exit(1)
	}
}
