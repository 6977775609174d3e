package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("morph_test_total", "A test counter.").Add(99)
	h := reg.Histogram("morph_test_ns", "A test histogram.")
	h.Record(512)

	admin, addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + addr

	// /healthz starts SERVING.
	code, body := adminGet(t, base, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "SERVING") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	// /metrics exposes the registered series in text format.
	code, body = adminGet(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE morph_test_total counter",
		"morph_test_total 99",
		"morph_test_ns_count 1",
		"morph_test_ns_sum 512",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	// /varz is the JSON snapshot.
	code, body = adminGet(t, base, "/varz")
	if code != http.StatusOK {
		t.Fatalf("varz: %d", code)
	}
	var samples []Sample
	if err := json.Unmarshal([]byte(body), &samples); err != nil {
		t.Fatalf("varz not JSON: %v\n%s", err, body)
	}
	if len(samples) != 2 {
		t.Fatalf("varz samples: %d, want 2", len(samples))
	}

	// /statusz without a callback is a placeholder document.
	code, body = adminGet(t, base, "/statusz")
	if code != http.StatusOK || !strings.Contains(body, "no status callback") {
		t.Fatalf("statusz placeholder: %d %q", code, body)
	}

	// Installed callback replaces it.
	admin.SetStatus(func() any {
		return map[string]any{"batches": 42, "wal_seq": 7}
	})
	code, body = adminGet(t, base, "/statusz")
	if code != http.StatusOK || !strings.Contains(body, "\"batches\": 42") {
		t.Fatalf("statusz callback: %d %q", code, body)
	}

	// Drain flips healthz to 503 NOT_SERVING.
	admin.SetServing(false)
	code, body = adminGet(t, base, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "NOT_SERVING") {
		t.Fatalf("healthz drained: %d %q", code, body)
	}
	admin.SetServing(true)
	if code, _ = adminGet(t, base, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz restored: %d", code)
	}

	// pprof index answers.
	code, body = adminGet(t, base, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
}

func TestAdminNilRegistry(t *testing.T) {
	admin, addr, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	code, body := adminGet(t, "http://"+addr, "/metrics")
	if code != http.StatusOK || body != "" {
		t.Fatalf("nil-registry metrics: %d %q", code, body)
	}
	if code, _ := adminGet(t, "http://"+addr, "/healthz"); code != http.StatusOK {
		t.Fatalf("nil-registry healthz: %d", code)
	}
}

func TestAdminScrapeUnderMutation(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("morph_flood_total", "flood")
	admin, addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				c.Add(1)
			}
		}
	}()
	defer close(stop)

	var last int64 = -1
	for i := 0; i < 20; i++ {
		_, body := adminGet(t, "http://"+addr, "/metrics")
		var v int64
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "morph_flood_total ") {
				if _, err := fmt.Sscanf(line, "morph_flood_total %d", &v); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
			}
		}
		if v < last {
			t.Fatalf("scrape %d went backwards: %d -> %d", i, last, v)
		}
		last = v
	}
	if last <= 0 {
		t.Fatal("scrapes never observed counter progress")
	}
}
