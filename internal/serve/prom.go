package serve

// The Prometheus text exposition of the daemon's metrics, negotiated via
// GET /metrics?format=prometheus. The table stays the default —
// byte-stable, diffable, pinned by tests — while the exposition renders
// the same snapshot typed for a scraper: lifecycle counters as counters,
// occupancy as gauges, latency as cumulative-bucket histograms, and
// (under -pprof) live runtime gauges.

import (
	"io"
	"runtime"

	"repro/internal/obs"
)

// WritePrometheus renders the server's snapshot as the exposition, with
// the runtime gauges added only when Config.Pprof is set.
func (s *Server) WritePrometheus(w io.Writer) error {
	m := s.Metrics()
	if s.cfg.Pprof {
		addRuntimeGauges(m)
	}
	return m.WritePrometheus(w)
}

// addRuntimeGauges adds the live process gauges: heap occupancy,
// goroutine count, and cumulative GC work. They are unabashedly
// nondeterministic, which is why they ride with -pprof instead of the
// default table.
func addRuntimeGauges(m *obs.Metrics) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.AddGauge("runtime.heap_alloc_bytes", float64(ms.HeapAlloc))
	m.AddGauge("runtime.heap_objects", float64(ms.HeapObjects))
	m.AddGauge("runtime.goroutines", float64(runtime.NumGoroutine()))
	m.AddGauge("runtime.gc_cycles", float64(ms.NumGC))
	m.AddGauge("runtime.gc_pause_total_seconds", float64(ms.PauseTotalNs)/1e9)
}
