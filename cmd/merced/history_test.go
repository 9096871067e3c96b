package main

// End-to-end CLI tests for the run ledger: -ledger appends a record per
// run into the -cache-dir store, and `merced history list|show|diff|check`
// reads the records back, with `check` exiting nonzero on a synthetic
// regression.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/jobspec"
	"repro/internal/ledger"
	"repro/internal/sweep"
)

// coverWithLedger runs `merced -cover -circuit s27 -lk 3 -cache-dir dir
// -ledger` in-process.
func coverWithLedger(t *testing.T, dir string) {
	t.Helper()
	st, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := sweep.NewCacheWithStore(0, st)
	cr := coverRun{circuit: "s27", lk: 3, beta: 50, seed: 1, format: "text", noTiming: true,
		cache: cache, led: ledger.Open(st)}
	var out, errb bytes.Buffer
	if code := runCover(context.Background(), cr, &out, &errb); code != 0 {
		t.Fatalf("runCover exit %d: %s", code, errb.String())
	}
	cache.Flush()
}

// history runs `merced history <args...>` in-process and returns the exit
// code and stdout.
func history(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := runHistory(args, &out, &errb)
	if code == 2 {
		t.Fatalf("runHistory %v usage error: %s", args, errb.String())
	}
	return code, out.String()
}

func TestHistoryCLI(t *testing.T) {
	dir := t.TempDir()

	// An empty store gates vacuously: the first CI run must bootstrap.
	code, out := history(t, "check", "-cache-dir", dir)
	if code != 0 || !strings.Contains(out, "no matching records") {
		t.Fatalf("empty-store check: exit %d\n%s", code, out)
	}

	coverWithLedger(t, dir)
	coverWithLedger(t, dir)

	// A name outside the metric grammar is a usage error naming the
	// name, not a metric that is merely absent from the history.
	for _, bad := range []string{"countr.flow.trees", "latency.sweep.job.p95"} {
		var out, errb bytes.Buffer
		if code := runHistory([]string{"check", "-cache-dir", dir, "-metrics", "wall," + bad}, &out, &errb); code != 2 {
			t.Fatalf("check -metrics %s: exit %d, want 2\n%s", bad, code, out.String())
		}
		if !strings.Contains(errb.String(), bad) {
			t.Fatalf("check -metrics %s: stderr does not name it: %s", bad, errb.String())
		}
	}
	// A well-formed name no record carries stays "skipped".
	code, out = history(t, "check", "-cache-dir", dir, "-metrics", "counter.no.such.counter")
	if code != 0 || !strings.Contains(out, "skipped (metric absent)") {
		t.Fatalf("absent well-formed metric: exit %d\n%s", code, out)
	}

	code, out = history(t, "list", "-cache-dir", dir)
	if code != 0 {
		t.Fatalf("list exit %d", code)
	}
	if n := strings.Count(out, "cover s27"); n != 2 {
		t.Fatalf("list shows %d runs, want 2:\n%s", n, out)
	}

	code, out = history(t, "show", "-cache-dir", dir, "latest")
	if code != 0 || !strings.Contains(out, `"fingerprint"`) || !strings.Contains(out, `"seq": 1`) {
		t.Fatalf("show latest: exit %d\n%s", code, out)
	}

	// The two runs do identical work: every counter diff line is unmarked.
	code, out = history(t, "diff", "-cache-dir", dir, "latest", "latest")
	if code != 0 || !strings.Contains(out, "metric") {
		t.Fatalf("diff: exit %d\n%s", code, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "counter.") && strings.Contains(line, "*") {
			t.Fatalf("self-diff marked a counter changed: %s", line)
		}
	}

	// Two healthy runs pass the gate. The s27 job is microseconds of work,
	// so wall time is pure scheduler noise at this scale — gate on a
	// deterministic counter instead (identical across the runs).
	code, out = history(t, "check", "-cache-dir", dir, "-metrics", "counter.campaign.faults")
	if code != 0 {
		t.Fatalf("healthy check exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "counter.campaign.faults") {
		t.Fatalf("check did not gate the counter:\n%s", out)
	}

	// Append a synthetic 100x slowdown under the same spec fingerprint and
	// machine: the gate must flag it and exit nonzero.
	st, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.Open(st)
	spec := &jobspec.Spec{V: jobspec.Version, Kind: jobspec.KindCover,
		Cover: &jobspec.Cover{Circuit: "s27", LK: 3, Beta: 50, Seed: 1}}
	spec.Normalize()
	entries, err := led.List()
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Fingerprint != spec.Fingerprint() {
		t.Fatalf("test spec fingerprint diverged from the CLI's: %s vs %s",
			spec.Fingerprint(), entries[0].Fingerprint)
	}
	if _, err := led.Append(ledger.NewRecord(spec, &jobspec.RunSummary{
		Kind: jobspec.KindCover, Wall: 100 * time.Second, Jobs: 1})); err != nil {
		t.Fatal(err)
	}
	code, out = history(t, "check", "-cache-dir", dir)
	if code != 1 || !strings.Contains(out, "REGRESSED") {
		t.Fatalf("synthetic slowdown: exit %d, want 1 with REGRESSED:\n%s", code, out)
	}
}
