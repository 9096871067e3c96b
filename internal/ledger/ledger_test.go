package ledger

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/obs"
)

func testSpec(t *testing.T, circuit string) *jobspec.Spec {
	t.Helper()
	s := &jobspec.Spec{V: jobspec.Version, Kind: jobspec.KindCover,
		Cover: &jobspec.Cover{Circuit: circuit}}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func testSummary(wall time.Duration) *jobspec.RunSummary {
	m := obs.NewMetrics()
	m.Add("campaign.faults", 120)
	m.Add("campaign.detected", 118)
	m.Observe("latency.campaign.batch.triage", wall/10)
	m.Observe("latency.campaign.batch.triage", wall/5)
	return &jobspec.RunSummary{
		Kind: jobspec.KindCover, Wall: wall, Jobs: 1,
		Phases:  core.Phases{Saturate: wall / 3, Retime: wall / 7},
		Metrics: m,
	}
}

func openTestLedger(t *testing.T) *Ledger {
	t.Helper()
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return Open(store)
}

func TestFingerprintStability(t *testing.T) {
	a := testSpec(t, "s1423")
	b := &jobspec.Spec{V: jobspec.Version, Kind: jobspec.KindCover,
		Cover:   &jobspec.Cover{Circuit: "s1423", LK: 16, Beta: 50, Seed: 1},
		Output:  &jobspec.Output{Format: "json", NoTiming: true},
		Timeout: jobspec.Duration(time.Minute),
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("output/timeout/defaulting must not change the fingerprint")
	}
	c := testSpec(t, "s510")
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different circuits must not share a fingerprint")
	}
}

func TestAppendGetHistory(t *testing.T) {
	l := openTestLedger(t)
	spec := testSpec(t, "s1423")
	var ids []string
	for i := 1; i <= 3; i++ {
		id, err := l.Append(NewRecord(spec, testSummary(time.Duration(i)*time.Second)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	other := testSpec(t, "s510")
	if _, err := l.Append(NewRecord(other, testSummary(time.Second))); err != nil {
		t.Fatal(err)
	}

	entries, err := l.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("listed %d entries, want 4", len(entries))
	}
	for i, e := range entries {
		if e.Seq != uint64(i) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}

	rec, err := l.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if rec.WallNS != int64(2*time.Second) || rec.Kind != "cover" || rec.V != SchemaVersion {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if rec.Counters["campaign.faults"] != 120 {
		t.Fatalf("counters lost: %v", rec.Counters)
	}
	if _, ok := rec.Latency["latency.campaign.batch.triage"]; !ok {
		t.Fatalf("latency lost: %v", rec.Latency)
	}
	if rec.Machine.FP == "" || rec.Machine.NumCPU < 1 {
		t.Fatalf("machine info missing: %+v", rec.Machine)
	}

	hist, err := l.History(spec.Fingerprint(), rec.Machine.FP)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history has %d records, want 3", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Seq <= hist[i-1].Seq {
			t.Fatal("history not oldest-first")
		}
	}
	if hist[0].Fingerprint != spec.Fingerprint() {
		t.Fatal("history crossed fingerprints")
	}
}

func TestMetricResolution(t *testing.T) {
	rec := NewRecord(testSpec(t, "s1423"), testSummary(10*time.Second))
	if v, ok := rec.Metric("wall"); !ok || v != float64(10*time.Second) {
		t.Fatalf("wall = %v %v", v, ok)
	}
	if v, ok := rec.Metric("phase.saturate"); !ok || v <= 0 {
		t.Fatalf("phase.saturate = %v %v", v, ok)
	}
	if v, ok := rec.Metric("counter.campaign.faults"); !ok || v != 120 {
		t.Fatalf("counter = %v %v", v, ok)
	}
	if v, ok := rec.Metric("latency.campaign.batch.triage.p50"); !ok || v <= 0 {
		t.Fatalf("latency p50 = %v %v", v, ok)
	}
	if _, ok := rec.Metric("latency.campaign.batch.triage.p37"); ok {
		t.Fatal("unknown quantile resolved")
	}
	if _, ok := rec.Metric("no.such.metric"); ok {
		t.Fatal("unknown metric resolved")
	}
	names := rec.MetricNames()
	for _, want := range []string{"wall", "phase.saturate", "counter.campaign.faults", "latency.campaign.batch.triage.p99"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("MetricNames missing %q: %v", want, names)
		}
	}
}

func TestCheckDetectsSyntheticSlowdown(t *testing.T) {
	l := openTestLedger(t)
	spec := testSpec(t, "s1423")
	// Five healthy runs around 1s...
	for i := 0; i < 5; i++ {
		if _, err := l.Append(NewRecord(spec, testSummary(time.Second+time.Duration(i)*10*time.Millisecond))); err != nil {
			t.Fatal(err)
		}
	}
	// ...then a synthetic 2x slowdown.
	if _, err := l.Append(NewRecord(spec, testSummary(2*time.Second))); err != nil {
		t.Fatal(err)
	}
	hist, err := l.History(spec.Fingerprint(), Machine().FP)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(hist, CheckOptions{Metrics: []string{"wall", "latency.campaign.batch.triage.p50"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Regressed() {
		t.Fatal("2x slowdown not flagged as regression")
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Fatalf("report missing REGRESSED:\n%s", buf.String())
	}

	// The healthy prefix alone passes.
	rep, err = Check(hist[:5], CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressed() {
		t.Fatal("healthy history flagged as regression")
	}
}

func TestCheckVacuousOnShortHistory(t *testing.T) {
	rec := NewRecord(testSpec(t, "s1423"), testSummary(time.Second))
	rep, err := Check([]*Record{rec}, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Vacuous || rep.Regressed() {
		t.Fatalf("single-run history should pass vacuously: %+v", rep)
	}
	if _, err := Check(nil, CheckOptions{}); err == nil {
		t.Fatal("empty history should error")
	}
}

func TestCheckSkipsAbsentMetrics(t *testing.T) {
	spec := testSpec(t, "s1423")
	old := NewRecord(spec, &jobspec.RunSummary{Kind: jobspec.KindCover, Wall: time.Second, Jobs: 1})
	cur := NewRecord(spec, testSummary(time.Second))
	rep, err := Check([]*Record{old, cur}, CheckOptions{Metrics: []string{"latency.campaign.batch.triage.p50"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressed() {
		t.Fatal("absent baseline metric must not regress")
	}
	if len(rep.Results) != 1 || !rep.Results[0].Skipped {
		t.Fatalf("expected one skipped result: %+v", rep.Results)
	}
}

func TestDiff(t *testing.T) {
	spec := testSpec(t, "s1423")
	a := NewRecord(spec, testSummary(time.Second))
	b := NewRecord(spec, testSummary(2*time.Second))
	lines := Diff(a, b)
	var wall *DiffLine
	for i := range lines {
		if lines[i].Name == "wall" {
			wall = &lines[i]
		}
	}
	if wall == nil {
		t.Fatal("diff lost the wall metric")
	}
	if wall.Delta() != 100 {
		t.Fatalf("wall delta = %v, want 100", wall.Delta())
	}
	var buf bytes.Buffer
	if err := WriteDiff(&buf, lines); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "wall") || !strings.Contains(out, "+100.0%") {
		t.Fatalf("diff table:\n%s", out)
	}
	// Counters are deterministic between the two summaries: no mark.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "counter.campaign.faults") && strings.Contains(line, "*") {
			t.Fatalf("deterministic counter marked changed: %s", line)
		}
	}
}

func TestRecordDeterministicModuloTiming(t *testing.T) {
	// Two identical runs must produce records identical after stripping
	// the timing-derived fields — the CI round-trip determinism contract.
	spec := testSpec(t, "s1423")
	a := NewRecord(spec, testSummary(time.Second))
	b := NewRecord(spec, testSummary(3*time.Second))
	a.Unix, b.Unix = 0, 0
	a.WallNS, b.WallNS = 0, 0
	a.PhasesNS, b.PhasesNS = nil, nil
	a.Latency, b.Latency = nil, nil
	a.Seq, b.Seq = 0, 0
	a.ID, b.ID = "", ""
	av, _ := a.Metric("counter.campaign.faults")
	bv, _ := b.Metric("counter.campaign.faults")
	if av != bv || a.Fingerprint != b.Fingerprint || a.Jobs != b.Jobs {
		t.Fatal("non-timing fields differ between identical runs")
	}
}

// PhasesNS carries the core phase names of every phase that took time.
func TestRecordPhasesFromCoreNames(t *testing.T) {
	sum := testSummary(time.Second)
	var want []string
	sum.Phases.Each(func(name string, d time.Duration) {
		if d > 0 {
			want = append(want, name)
		}
	})
	rec := NewRecord(testSpec(t, "s27"), sum)
	got := make([]string, 0, len(rec.PhasesNS))
	for name := range rec.PhasesNS {
		got = append(got, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) || len(want) != 2 {
		t.Errorf("PhasesNS keys = %v, want %v", got, want)
	}
	if rec.PhasesNS["saturate"] != int64(sum.Phases.Saturate) {
		t.Errorf("PhasesNS[saturate] = %d, want %d", rec.PhasesNS["saturate"], sum.Phases.Saturate)
	}
}

func TestValidateMetric(t *testing.T) {
	for _, name := range []string{"wall", "phase.saturate", "phase.retime",
		"counter.flow.trees", "gauge.flow.injected_flow",
		"latency.sweep.job.p50", "latency.phase.assign.count", "latency.x.p99"} {
		if err := ValidateMetric(name); err != nil {
			t.Errorf("ValidateMetric(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"", "walls", "wall.x", "phase.", "phase.partition",
		"counter.", "gauge.", "countr.flow.trees", "latency.p50",
		"latency.sweep.job.p95", "latency.sweep.job"} {
		err := ValidateMetric(name)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("ValidateMetric(%q) = %v, want an error naming it", name, err)
		}
	}
}
