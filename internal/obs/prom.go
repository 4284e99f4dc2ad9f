package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4), stdlib-only. Counters become `counter`
// series, gauges `gauge`, and histograms full `histogram` families with
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
// Metric names have their dots replaced by underscores ("reach.states"
// → "reach_states"); the original name is kept in the HELP line so the
// OBSERVABILITY.md tables remain searchable from a Prometheus browser.
func WritePrometheus(w io.Writer, snap *Snapshot) error {
	for _, name := range sortedKeys(snap.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s Counter %s.\n# TYPE %s counter\n%s %d\n",
			pn, name, pn, pn, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s Gauge %s.\n# TYPE %s gauge\n%s %d\n",
			pn, name, pn, pn, snap.Gauges[name]); err != nil {
			return err
		}
	}
	histNames := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := snap.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s Histogram %s (power-of-two buckets).\n# TYPE %s histogram\n",
			pn, name, pn); err != nil {
			return err
		}
		// The snapshot's buckets are per-bucket counts; Prometheus
		// buckets are cumulative and end at +Inf.
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.LE, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, h.Count, pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitizes a registry metric name into the Prometheus
// alphabet [a-zA-Z0-9_:], mapping dots (our namespace separator) and
// any other illegal byte to underscores.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
