package obs

// Prometheus text exposition (version 0.0.4) of a Metrics snapshot. The
// table stays the default everywhere; the exposition is an opt-in content
// negotiation on the serve daemon, where a scraper wants cumulative
// buckets and type metadata rather than byte-stable prose. Names are
// sanitized into the merced_ namespace and rendered in sorted order so
// the exposition itself is deterministic for deterministic inputs.

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// PromName sanitizes a dotted internal metric name into a Prometheus
// metric name under the merced_ namespace: dots and any other invalid
// runes become underscores.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len("merced_") + len(name))
	b.WriteString("merced_")
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatSeconds renders nanoseconds as seconds with full precision.
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WritePrometheus renders the snapshot as Prometheus text exposition:
// every counter and gauge in sorted name order, each typed by the map
// that holds it, then every histogram in sorted name order. A histogram
// drops its latency. prefix and takes a _seconds suffix, which says the
// same thing the Prometheus way; it renders as cumulative le buckets (in
// seconds, converted from the fixed power-of-two nanosecond edges), a
// +Inf bucket, and _sum/_count samples.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	b := bufio.NewWriter(w) // errors are sticky; Flush reports the first
	for _, name := range m.Names() {
		n := PromName(name)
		if c, ok := m.Counters[name]; ok {
			b.WriteString("# TYPE " + n + " counter\n" + n + " " + strconv.FormatInt(c, 10) + "\n")
		} else {
			b.WriteString("# TYPE " + n + " gauge\n" + n + " " + strconv.FormatFloat(m.Gauges[name], 'g', -1, 64) + "\n")
		}
	}
	for _, name := range m.Latency.Names() {
		h := m.Latency.Get(name)
		n := PromName(strings.TrimPrefix(name, "latency.")) + "_seconds"
		b.WriteString("# TYPE " + n + " histogram\n")
		var cum uint64
		for i, c := range h.counts {
			if c == 0 {
				continue
			}
			cum += c
			b.WriteString(n + `_bucket{le="` + formatSeconds(BucketUpper(i)) + `"} ` + strconv.FormatUint(cum, 10) + "\n")
		}
		count := strconv.FormatUint(h.count, 10)
		b.WriteString(n + `_bucket{le="+Inf"} ` + count + "\n")
		b.WriteString(n + "_sum " + formatSeconds(h.sum) + "\n")
		b.WriteString(n + "_count " + count + "\n")
	}
	return b.Flush()
}
