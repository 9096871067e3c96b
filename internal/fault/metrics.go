package fault

import "repro/internal/obs"

// Metrics returns the campaign's snapshot: its counters under the
// campaign.* prefix plus the per-batch latency histograms. Every counter
// is a pure function of the report, which is itself deterministic for
// fixed options, so the counter table is identical for any Workers value.
// The batch counters do depend on LaneWords (wider batches → fewer of
// them); the fault/detection counters do not.
func (r *CampaignReport) Metrics() *obs.Metrics {
	m := obs.NewMetrics()
	m.Add("campaign.segments", int64(len(r.Segments)))
	m.Add("campaign.faults", int64(r.Total))
	m.Add("campaign.detected", int64(r.Detected))
	m.Add("campaign.simulated", int64(r.Simulated))
	m.Add("campaign.batches", int64(r.Batches))
	m.Add("campaign.triage_batches", int64(r.TriageBatches))
	m.Add("campaign.escalation_batches", int64(r.Batches-r.TriageBatches))
	m.Add("campaign.triage_detected", int64(r.TriageDetected))
	m.Add("campaign.survivors", int64(r.Survivors))
	m.Latency.Merge(r.Latency)
	return m
}
