package obs

// The run's telemetry snapshot. Counters and gauges are aggregated by the
// drivers (sweep, campaign, CLI) from per-job result structs in job order
// — never from concurrent callbacks — so a table is byte-identical for
// any worker count, with or without tracing. Keys render sorted; the JSON
// form relies on encoding/json's sorted map keys for the same property.
// The latency histograms ride in the same value but are timing data:
// every sink renders them only where a timing trailer would render.

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"time"
)

// Metrics is one run's snapshot: named counters, gauges and latency
// histograms. The zero value is not usable; call NewMetrics. Metrics is
// not safe for concurrent mutation — aggregate from one goroutine, in a
// deterministic order.
type Metrics struct {
	// Counters holds integer work counters (tree iterations, relaxations,
	// batches, cache hits).
	Counters map[string]int64 `json:"counters"`
	// Gauges holds real-valued aggregates (injected flow) and point-in-time
	// readings (queue length, cache occupancy).
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Latency holds the latency histograms. It is excluded from the JSON
	// form so deterministic encodings stay byte-stable; reports carry its
	// summaries as a sibling "latency" object under timing.
	Latency *HistogramSet `json:"-"`
}

// NewMetrics returns an empty snapshot.
func NewMetrics() *Metrics {
	return &Metrics{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]float64),
		Latency:  NewHistogramSet(),
	}
}

// Add increments counter name by v.
func (m *Metrics) Add(name string, v int64) { m.Counters[name] += v }

// AddGauge increments gauge name by v.
func (m *Metrics) AddGauge(name string, v float64) { m.Gauges[name] += v }

// Observe records d into the named latency histogram. Zero durations are
// recorded; producers that use zero as "not run here" skip them first.
func (m *Metrics) Observe(name string, d time.Duration) { m.Latency.Observe(name, d) }

// Merge adds o's counters, gauges and histograms into m.
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	for k, v := range o.Counters {
		m.Counters[k] += v
	}
	for k, v := range o.Gauges {
		m.Gauges[k] += v
	}
	m.Latency.Merge(o.Latency)
}

// Names returns every counter and gauge name, sorted.
func (m *Metrics) Names() []string {
	names := slices.AppendSeq(slices.Collect(maps.Keys(m.Counters)), maps.Keys(m.Gauges))
	slices.Sort(names)
	return names
}

// nameWidth is the first column's width in a table headed by header.
func nameWidth(header string, names []string) int {
	width := len(header)
	for _, n := range names {
		width = max(width, len(n))
	}
	return width
}

// formatGauge renders a gauge for the table: integral values (queue
// lengths, capacities) as decimal integers, everything else with %g.
func formatGauge(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTable renders the counters and gauges as an aligned two-column
// table, one metric per line in sorted name order; the output is
// deterministic for deterministic inputs. With timing set, a blank line
// and the latency table follow when any histogram exists.
func (m *Metrics) WriteTable(w io.Writer, timing bool) error {
	names := m.Names()
	width := nameWidth("metric", names)
	if _, err := fmt.Fprintf(w, "%-*s  value\n", width, "metric"); err != nil {
		return err
	}
	for _, n := range names {
		var val string
		if c, ok := m.Counters[n]; ok {
			val = strconv.FormatInt(c, 10)
		} else {
			val = formatGauge(m.Gauges[n])
		}
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", width, n, val); err != nil {
			return err
		}
	}
	if !timing || m.Latency.Len() == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return m.Latency.WriteTable(w)
}
