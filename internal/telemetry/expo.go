package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteProm renders every registered instrument in the Prometheus text
// exposition format (version 0.0.4): one # HELP and # TYPE line per family,
// then one sample line per series — counters and gauges as plain values,
// histograms as cumulative _bucket{le="..."} lines plus _sum and _count.
// Callback instruments are evaluated here, never on a hot path. A nil
// registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, fam := range r.families() {
		d := fam[0].d
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			d.name, escapeHelp(d.help), d.name, fam[0].kind()); err != nil {
			return err
		}
		for _, in := range fam {
			if err := writeSeries(w, in); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, in instrument) error {
	lbl := ""
	if in.d.label != "" {
		lbl = fmt.Sprintf("{%s=%q}", in.d.label, in.d.value)
	}
	switch {
	case in.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", in.d.name, lbl, in.c.Value())
		return err
	case in.cf != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", in.d.name, lbl, in.cf.Value())
		return err
	case in.gf != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", in.d.name, lbl, in.gf.Value())
		return err
	case in.h != nil:
		return writeHistSeries(w, in)
	}
	return nil
}

func writeHistSeries(w io.Writer, in instrument) error {
	snap := in.h.Snapshot()
	octaves := snap.octaves()
	// Prometheus buckets are cumulative; empty power-of-two buckets are
	// elided to keep scrapes compact — except the first and +Inf, which is
	// mandatory even when the overflow bucket is empty.
	var cum int64
	for i, c := range octaves {
		cum += c
		if c == 0 && i != 0 && i != numOctaves-1 {
			continue
		}
		le := "+Inf"
		if i < numOctaves-1 {
			le = fmt.Sprintf("%d", int64(1)<<i)
		}
		if err := writeBucket(w, in.d, le, cum); err != nil {
			return err
		}
	}
	lbl := ""
	if in.d.label != "" {
		lbl = fmt.Sprintf(",%s=%q", in.d.label, in.d.value)
		lbl = "{" + lbl[1:] + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", in.d.name, lbl, snap.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", in.d.name, lbl, snap.Count)
	return err
}

func writeBucket(w io.Writer, d desc, le string, cum int64) error {
	if d.label != "" {
		_, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", d.name, d.label, d.value, le, cum)
		return err
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", d.name, le, cum)
	return err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Sample is one series in a JSON Snapshot.
type Sample struct {
	// Name is the series (instrument) name.
	Name string `json:"name"`
	// Label is "key=value" when the series is labelled, empty otherwise.
	Label string `json:"label,omitempty"`
	// Kind is counter, gauge, or histogram.
	Kind string `json:"kind"`
	// Value carries counter and gauge readings.
	Value int64 `json:"value,omitempty"`

	// Count is a histogram's total observation count.
	Count int64 `json:"count,omitempty"`
	// Sum is a histogram's sum of observed values.
	Sum int64 `json:"sum,omitempty"`
	// P50 is the bucket-upper-bound median estimate (within 12.5%).
	P50 int64 `json:"p50,omitempty"`
	// P95 is the bucket-upper-bound 95th-percentile estimate.
	P95 int64 `json:"p95,omitempty"`
	// P99 is the bucket-upper-bound 99th-percentile estimate.
	P99 int64 `json:"p99,omitempty"`
}

// Snapshot returns one merged reading of every instrument, in registration
// order. Histograms are summarised (count, sum, bucket-bound p50/p95/p99)
// rather than dumped bucket-by-bucket; scrape /metrics for full buckets.
func (r *Registry) Snapshot() []Sample {
	ins := r.snapshotInstruments()
	out := make([]Sample, 0, len(ins))
	for _, in := range ins {
		s := Sample{Name: in.d.name, Kind: in.kind()}
		if in.d.label != "" {
			s.Label = in.d.label + "=" + in.d.value
		}
		switch {
		case in.c != nil:
			s.Value = in.c.Value()
		case in.cf != nil:
			s.Value = in.cf.Value()
		case in.gf != nil:
			s.Value = in.gf.Value()
		case in.h != nil:
			hs := in.h.Snapshot()
			s.Count, s.Sum = hs.Count, hs.Sum
			s.P50, s.P95, s.P99 = hs.Quantile(0.50), hs.Quantile(0.95), hs.Quantile(0.99)
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON writes the Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
