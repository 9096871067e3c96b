package sweep

// Metrics aggregation for a finished sweep. Counters are pure functions of
// the per-job results, summed in input order — never collected from
// concurrent callbacks — so for a given job matrix the table is
// byte-identical for any worker count, with caching on or off, and with
// tracing on or off. (Cache counters share -cache-stats's caveat: they are
// deterministic as long as the cache never evicts, which holds for every
// paper-scale matrix under the default capacity.)

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Metrics aggregates the sweep's snapshot after the fact, in job order:
// hot-kernel counters, campaign counters and batch histograms (under
// Config.Coverage), artifact-cache statistics, and the latency histograms.
// Every core phase fills latency.phase.<name> (parse from the preload's
// computes only); whole jobs fill latency.sweep.job. Zero phase durations
// are skipped — they mark stages attributed to another job through the
// shared-prefix cache. The histograms are timing data: render them only
// where a timing trailer would render.
func (r *Report) Metrics() *obs.Metrics {
	m := obs.NewMetrics()
	m.Add("sweep.jobs", int64(r.Stats.Jobs))
	m.Add("sweep.failed", int64(r.Stats.Failed))
	observe := func(name string, d time.Duration) {
		if d > 0 {
			m.Observe(name, d)
		}
	}
	for _, d := range r.parseTimes {
		observe("latency.phase."+core.PhaseParse, d)
	}
	for i := range r.Jobs {
		jr := &r.Jobs[i]
		if jr.Err != nil {
			continue
		}
		jr.Kernels.AddTo(m)
		observe("latency.sweep.job", jr.Elapsed)
		jr.Phases.Each(func(name string, d time.Duration) { observe("latency.phase."+name, d) })
		if jr.Coverage != nil {
			m.Merge(jr.Coverage.Metrics())
		}
	}
	r.Cache.AddTo(m)
	return m
}

// AddTo adds the per-stage traffic counters to m under cache.<stage>.*.
func (cs CacheStats) AddTo(m *obs.Metrics) {
	for _, st := range []struct {
		name string
		s    StageStats
	}{{"parsed", cs.Parsed}, {"analyzed", cs.Analyzed}, {"saturated", cs.Saturated}} {
		m.Add("cache."+st.name+".hits", st.s.Hits)
		m.Add("cache."+st.name+".disk_hits", st.s.DiskHits)
		m.Add("cache."+st.name+".misses", st.s.Misses)
		m.Add("cache."+st.name+".evictions", st.s.Evictions)
	}
}
