package rpcserve

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"morphstream/internal/telemetry"
)

// scrapeValue fetches the admin /metrics endpoint and returns the value of
// the series with the given name (and optional label selector, matched as a
// raw substring of the series line, e.g. `{type="submit"}`). Missing series
// return ok=false.
func scrapeValue(t *testing.T, url, name, labels string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+labels+" ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("scrape: parse %q: %v", line, err)
		}
		return v, true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return 0, false
}

// TestFloodWhileScraping runs the multi-connection flood with a live
// registry while a scraper hammers the admin /metrics endpoint: counters
// must be monotonic across scrapes (merges never tear), and once the flood
// drains the frame counters must account for exactly every submit, and for
// receipts batched into far fewer frames than events.
func TestFloodWhileScraping(t *testing.T) {
	const (
		conns   = 4
		span    = 16
		balance = int64(40)
	)
	events := 4000
	if testing.Short() {
		events = 500
	}
	accounts := conns * span
	ops := make([][]any, conns)
	for c := range ops {
		ops[c] = genOps(int64(2000+c), events, c*span, span, balance)
	}

	reg := telemetry.NewRegistry()
	srv, addr := newTestServer(t, accounts, balance, func(cfg *Config) {
		cfg.Engine.Telemetry = reg
	})
	adm, bound, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	url := "http://" + bound

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		var lastSubmits, lastReceipts float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Full exposition must always render (histogram merges included).
			resp, err := http.Get(url + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Errorf("scrape read: %v", err)
			}
			resp.Body.Close()
			if v, ok := scrapeValue(t, url, "morph_rpc_frames_in_total", `{type="submit"}`); ok {
				if v < lastSubmits {
					t.Errorf("frames_in submit went backwards: %v -> %v", lastSubmits, v)
					return
				}
				lastSubmits = v
			}
			if v, ok := scrapeValue(t, url, "morph_rpc_frames_out_total", `{type="receipt"}`); ok {
				if v < lastReceipts {
					t.Errorf("frames_out receipt went backwards: %v -> %v", lastReceipts, v)
					return
				}
				lastReceipts = v
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got := floodClient(t, addr, ops[c])
			if len(got) != events {
				t.Errorf("client %d: %d receipts, want %d", c, len(got), events)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
	if t.Failed() {
		t.FailNow()
	}
	waitSessionsGone(t, srv)

	total := float64(conns * events)
	if v, _ := scrapeValue(t, url, "morph_rpc_frames_in_total", `{type="submit"}`); v != total {
		t.Errorf("frames_in submit = %v, want %v", v, total)
	}
	// How many frames depends on where the interval punctuation fell; that
	// they are batched at all is the point (the grouping itself is pinned
	// by TestOnBatchGroupsReceiptsBySession).
	if v, _ := scrapeValue(t, url, "morph_rpc_frames_out_total", `{type="receipt"}`); v < 1 || v >= total {
		t.Errorf("frames_out receipt = %v, want batched: at least 1, fewer than %v", v, total)
	}
	if v, _ := scrapeValue(t, url, "morph_rpc_connections_total", ""); v != conns {
		t.Errorf("connections = %v, want %d", v, conns)
	}
	if v, _ := scrapeValue(t, url, "morph_engine_events_planned_total", ""); v != total {
		t.Errorf("events planned = %v, want %v", v, total)
	}
	if v, _ := scrapeValue(t, url, "morph_engine_event_latency_ns_count", ""); v != total {
		t.Errorf("event latency samples = %v, want %v", v, total)
	}
	if v, ok := scrapeValue(t, url, "morph_exec_ops_total", ""); !ok || v == 0 {
		t.Errorf("exec ops = %v (ok=%v), want > 0", v, ok)
	}
	if v, _ := scrapeValue(t, url, "morph_rpc_sessions", ""); v != 0 {
		t.Errorf("sessions after drain = %v, want 0", v)
	}
}
