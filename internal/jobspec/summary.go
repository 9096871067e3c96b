package jobspec

// Spec fingerprints and the post-run summary hook. The fingerprint is the
// identity a run ledger chains history on: two specs that ask for the
// same *work* — same kind, same body — share a fingerprint even when they
// render differently (Output) or carry different safety nets (Timeout).
// The summary is the one struct the execution funnel hands to whoever
// wants to persist the run (the -ledger flag, the serve daemon): wall
// time, job counts, phase totals, and the run's metrics snapshot, all
// pulled from result structs after the fact.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Fingerprint returns a stable hex identity for the work a spec requests:
// a SHA-256 over the normalized version, kind, and kind body. Output and
// Timeout are excluded — they change how a run is rendered or bounded,
// not what is computed — so a history of "the same experiment" survives
// format churn. Fingerprint normalizes a copy, so absent defaults and
// explicit defaults coincide.
func (s *Spec) Fingerprint() string {
	c := *s
	if s.Compile != nil {
		body := *s.Compile
		c.Compile = &body
	}
	if s.Sweep != nil {
		body := *s.Sweep
		c.Sweep = &body
	}
	if s.Cover != nil {
		body := *s.Cover
		c.Cover = &body
	}
	c.Output = nil
	c.Timeout = 0
	c.Normalize()
	c.Output = nil // Normalize materializes an Output; drop it again
	blob, err := json.Marshal(&c)
	if err != nil {
		// Spec is a closed tree of marshalable types; failure here is a
		// programming error, not an input condition.
		panic(fmt.Sprintf("jobspec: fingerprinting spec: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Summary returns a short human label for the spec ("sweep s27,s1423
// lk=16,24" style), used by ledger listings.
func (s *Spec) Summary() string {
	switch s.Kind {
	case KindCompile:
		if s.Compile != nil {
			return fmt.Sprintf("compile %s lk=%d seed=%d", s.Compile.Circuit, s.Compile.LK, s.Compile.Seed)
		}
	case KindCover:
		if s.Cover != nil {
			return fmt.Sprintf("cover %s lk=%d seed=%d", s.Cover.Circuit, s.Cover.LK, s.Cover.Seed)
		}
	case KindSweep:
		if sw := s.Sweep; sw != nil {
			label := fmt.Sprintf("sweep %v lks=%v", sw.Circuits, sw.LKs)
			if sw.Shard != nil {
				label += fmt.Sprintf(" shard=%d/%d", sw.Shard.Index, sw.Shard.Count)
			}
			return label
		}
	}
	return string(s.Kind)
}

// RunSummary is the post-run observability bundle Run hands to
// Runtime.OnSummary: everything a run ledger records about one execution.
// Metrics follows the same aggregation discipline as the rendered tables
// (job-order, post-hoc), so two runs of the same spec produce identical
// counters and gauges and differ only in the timing-derived fields (Wall,
// Phases, Metrics.Latency).
type RunSummary struct {
	// Kind echoes the spec kind.
	Kind Kind
	// Wall is the run's wall-clock time (sweep pool wall, campaign
	// elapsed, or compile elapsed).
	Wall time.Duration
	// Jobs and Failed count the run's work units (1/0 for single-job
	// kinds unless the job failed).
	Jobs, Failed int
	// Phases sums the per-phase wall time across the run.
	Phases core.Phases
	// Metrics is the run's snapshot: the deterministic counter/gauge table
	// plus the latency histograms (empty when the kind collects none).
	Metrics *obs.Metrics
	// Cache reports the run's artifact-cache traffic (sweep kinds only).
	Cache *sweep.CacheStats
}
