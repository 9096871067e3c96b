package sweep

// This file renders reports: JSON for machines, CSV for spreadsheets,
// aligned text for terminals. With Timing off, the JSON and CSV forms are
// byte-for-byte deterministic for a given job matrix — independent of
// worker count, scheduling, and machine speed — which is what makes sweep
// reports diffable across runs and what the determinism tests pin down.

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// RenderOptions selects what the writers emit.
type RenderOptions struct {
	// Timing includes wall-clock fields (per-job elapsed, pool stats).
	// These are non-deterministic; leave Timing false when the output
	// must be reproducible byte-for-byte.
	Timing bool
	// CacheStats includes the artifact cache's per-stage hit/miss/eviction
	// counters (JSON "cache" object, text trailer). Counter totals are
	// deterministic for a given matrix as long as the cache never evicts,
	// so the flag composes with Timing=false.
	CacheStats bool
	// Metrics appends the aggregated kernel-counter table (see
	// Report.Metrics) to the text form and a "metrics" object to the JSON
	// form. The table is deterministic for any worker count, so the flag
	// composes with Timing=false. The CSV form never carries metrics.
	// The snapshot's latency histograms are fills of wall-clock data,
	// so they render only when Metrics AND Timing are both set;
	// -no-timing output is byte-identical with or without them.
	Metrics bool
}

type jobJSON struct {
	Circuit   string           `json:"circuit"`
	LK        int              `json:"lk"`
	Beta      int              `json:"beta"`
	Seed      int64            `json:"seed"`
	Error     string           `json:"error,omitempty"`
	Clusters  int              `json:"clusters,omitempty"`
	MaxInputs int              `json:"max_inputs,omitempty"`
	Areas     *core.AreaReport `json:"areas,omitempty"`
	Coverage  *coverageJSON    `json:"coverage,omitempty"`
	ElapsedMS float64          `json:"elapsed_ms,omitempty"`
}

// coverageJSON is the compact per-job fault-coverage block: the campaign
// aggregates without the per-cluster detail (`merced -cover` renders the
// full report when that detail is wanted). Batch counts are deliberately
// absent: they depend on the lane width, and the sweep report must stay
// byte-identical across the lanes axis.
type coverageJSON struct {
	Faults    int     `json:"faults"`
	Simulated int     `json:"simulated"`
	Detected  int     `json:"detected"`
	Coverage  float64 `json:"coverage"`
}

type statsJSON struct {
	Jobs       int                `json:"jobs"`
	Failed     int                `json:"failed"`
	Workers    int                `json:"workers,omitempty"`
	WallMS     float64            `json:"wall_ms,omitempty"`
	ComputeMS  float64            `json:"compute_ms,omitempty"`
	JobsPerSec float64            `json:"jobs_per_sec,omitempty"`
	Speedup    float64            `json:"speedup,omitempty"`
	PhasesMS   map[string]float64 `json:"phases_ms,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func stageStatsString(s StageStats) string {
	return fmt.Sprintf("%dh/%dd/%dm/%de", s.Hits, s.DiskHits, s.Misses, s.Evictions)
}

// WriteJSON renders the report as indented JSON: a "jobs" array in input
// order plus a "stats" object. Timing fields appear only under
// opts.Timing.
func (r *Report) WriteJSON(w io.Writer, opts RenderOptions) error {
	out := struct {
		Jobs    []jobJSON                       `json:"jobs"`
		Stats   statsJSON                       `json:"stats"`
		Cache   *CacheStats                     `json:"cache,omitempty"`
		Metrics *obs.Metrics                    `json:"metrics,omitempty"`
		Latency map[string]obs.HistogramSummary `json:"latency,omitempty"`
	}{
		Jobs:  make([]jobJSON, 0, len(r.Jobs)),
		Stats: statsJSON{Jobs: r.Stats.Jobs, Failed: r.Stats.Failed},
	}
	if opts.CacheStats {
		cache := r.Cache
		out.Cache = &cache
	}
	if opts.Metrics {
		out.Metrics = r.Metrics()
		if opts.Timing {
			out.Latency = out.Metrics.Latency.Summaries()
		}
	}
	for i := range r.Jobs {
		jr := &r.Jobs[i]
		jj := jobJSON{Circuit: jr.Job.Circuit, LK: jr.Job.LK, Beta: jr.Job.Beta, Seed: jr.Job.Seed}
		if jr.Err != nil {
			jj.Error = jr.Err.Error()
		} else {
			areas := jr.Areas
			jj.Clusters = jr.Clusters
			jj.MaxInputs = jr.MaxInputs
			jj.Areas = &areas
			if cov := jr.Coverage; cov != nil {
				jj.Coverage = &coverageJSON{
					Faults: cov.Total, Simulated: cov.Simulated, Detected: cov.Detected,
					Coverage: cov.Ratio(),
				}
			}
		}
		if opts.Timing {
			jj.ElapsedMS = ms(jr.Elapsed)
		}
		out.Jobs = append(out.Jobs, jj)
	}
	if opts.Timing {
		st := r.Stats
		out.Stats.Workers = st.Workers
		out.Stats.WallMS = ms(st.Wall)
		out.Stats.ComputeMS = ms(st.Compute)
		out.Stats.JobsPerSec = st.JobsPerSec
		out.Stats.Speedup = st.Speedup()
		out.Stats.PhasesMS = make(map[string]float64)
		st.Phases.Each(func(name string, d time.Duration) { out.Stats.PhasesMS[name] = ms(d) })
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// table builds the shared per-job table for the CSV and text writers. The
// coverage column appears only when at least one job carries a campaign
// report, so plain sweeps render exactly as before.
func (r *Report) table(title string, opts RenderOptions) *report.Table {
	hasCoverage := false
	for i := range r.Jobs {
		if r.Jobs[i].Coverage != nil {
			hasCoverage = true
			break
		}
	}
	headers := []string{"circuit", "lk", "beta", "seed", "clusters", "max_inputs",
		"cut_nets", "cuts_on_scc", "covered", "excess",
		"cbit_retimed", "cbit_nonretimed", "ratio_retimed", "ratio_nonretimed", "saving"}
	if hasCoverage {
		headers = append(headers, "coverage")
	}
	headers = append(headers, "error")
	if opts.Timing {
		headers = append(headers, "elapsed")
	}
	t := report.NewTable(title, headers...)
	for i := range r.Jobs {
		jr := &r.Jobs[i]
		errText := ""
		if jr.Err != nil {
			errText = jr.Err.Error()
		}
		row := []interface{}{jr.Job.Circuit, jr.Job.LK, jr.Job.Beta, jr.Job.Seed,
			jr.Clusters, jr.MaxInputs,
			jr.Areas.CutNets, jr.Areas.CutNetsOnSCC, jr.Areas.CoveredCuts, jr.Areas.ExcessCuts,
			jr.Areas.CBITAreaRetimed, jr.Areas.CBITAreaNonRetimed,
			jr.Areas.RatioRetimed, jr.Areas.RatioNonRetimed, jr.Areas.Saving()}
		if hasCoverage {
			cov := ""
			if jr.Coverage != nil {
				cov = fmt.Sprintf("%.4f", jr.Coverage.Ratio())
			}
			row = append(row, cov)
		}
		row = append(row, errText)
		if opts.Timing {
			row = append(row, jr.Elapsed)
		}
		t.AddRowf(row...)
	}
	return t
}

// WriteCSV renders one row per job in input order.
func (r *Report) WriteCSV(w io.Writer, opts RenderOptions) error {
	return r.table("", opts).WriteCSV(w)
}

// WriteText renders the aligned per-job table followed by the pool
// statistics (the latter only under opts.Timing).
func (r *Report) WriteText(w io.Writer, opts RenderOptions) error {
	if err := r.table("Sweep report", opts).Write(w); err != nil {
		return err
	}
	st := r.Stats
	if _, err := fmt.Fprintf(w, "\n%d jobs, %d failed\n", st.Jobs, st.Failed); err != nil {
		return err
	}
	if opts.CacheStats {
		cs := r.Cache
		if _, err := fmt.Fprintf(w, "artifact cache (%d/%d entries): parsed %s, analyzed %s, saturated %s\n",
			cs.Entries, cs.Capacity,
			stageStatsString(cs.Parsed), stageStatsString(cs.Analyzed), stageStatsString(cs.Saturated)); err != nil {
			return err
		}
	}
	if opts.Metrics {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := r.Metrics().WriteTable(w, opts.Timing); err != nil {
			return err
		}
	}
	if !opts.Timing {
		return nil
	}
	_, err := fmt.Fprintf(w, "workers %d: wall %v, compute %v (%.1fx speedup, %.1f jobs/s)\nphase totals: %s\n",
		st.Workers, st.Wall.Round(time.Millisecond), st.Compute.Round(time.Millisecond),
		st.Speedup(), st.JobsPerSec, st.Phases.Format(time.Millisecond))
	return err
}
