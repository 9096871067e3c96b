package main

// The `merced history` subcommand: triage over the run ledger a
// -cache-dir store accumulates (`-ledger` on the CLI, always-on under
// `merced serve -cache-dir`).
//
//	merced history list -cache-dir .merced-cache
//	merced history show -cache-dir .merced-cache latest
//	merced history diff -cache-dir .merced-cache ab12cd34ef56-0 latest
//	merced history check -cache-dir .merced-cache -threshold 25 -metrics wall
//
// `check` gates the newest record against the median of up to -window
// prior runs of the same spec fingerprint on the same machine
// fingerprint, and exits 1 when any gated metric regressed past
// -threshold — the CI regression gate.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/ledger"
)

// runHistory dispatches the ledger-triage verbs. Exit codes: 0 on
// success, 1 on a store error or a detected regression, 2 on usage
// errors.
func runHistory(args []string, stdout, stderr io.Writer) int {
	usage := func() int {
		fmt.Fprintln(stderr, "usage: merced history <list|show|diff|check> -cache-dir DIR [flags] [args]")
		return 2
	}
	if len(args) == 0 {
		return usage()
	}
	verb, rest := args[0], args[1:]
	fail := func(err error) int {
		fmt.Fprintf(stderr, "merced history %s: %v\n", verb, err)
		return 1
	}
	newFlagSet := func() (*flag.FlagSet, *string) {
		fs := flag.NewFlagSet("merced history "+verb, flag.ContinueOnError)
		fs.SetOutput(stderr)
		dir := fs.String("cache-dir", "", "artifact store directory holding the ledger (required)")
		return fs, dir
	}
	open := func(dir string) (*ledger.Ledger, int) {
		if dir == "" {
			fmt.Fprintf(stderr, "merced history %s: -cache-dir is required\n", verb)
			return nil, 2
		}
		st, err := cas.Open(dir)
		if err != nil {
			return nil, fail(err)
		}
		return ledger.Open(st), 0
	}

	switch verb {
	case "list":
		fs, dir := newFlagSet()
		fp := fs.String("fp", "", "only records whose spec fingerprint has this prefix")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		led, code := open(*dir)
		if led == nil {
			return code
		}
		entries, err := led.List()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%-4s  %-18s  %-7s  %-12s  %-20s  %s\n", "seq", "id", "kind", "machine", "when", "summary")
		for _, e := range entries {
			if *fp != "" && !strings.HasPrefix(e.Fingerprint, *fp) {
				continue
			}
			fmt.Fprintf(stdout, "%-4d  %-18s  %-7s  %-12s  %-20s  %s\n",
				e.Seq, e.ID, e.Kind, e.MachineFP,
				time.Unix(e.Unix, 0).UTC().Format("2006-01-02T15:04:05Z"), e.Summary)
		}
		return 0

	case "show":
		fs, dir := newFlagSet()
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: merced history show -cache-dir DIR <id|latest>")
			return 2
		}
		led, code := open(*dir)
		if led == nil {
			return code
		}
		rec, err := resolveRecord(led, fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		out, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", out)
		return 0

	case "diff":
		fs, dir := newFlagSet()
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: merced history diff -cache-dir DIR <id-a|latest> <id-b|latest>")
			return 2
		}
		led, code := open(*dir)
		if led == nil {
			return code
		}
		a, err := resolveRecord(led, fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := resolveRecord(led, fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if err := ledger.WriteDiff(stdout, ledger.Diff(a, b)); err != nil {
			return fail(err)
		}
		return 0

	case "check":
		fs, dir := newFlagSet()
		fp := fs.String("fp", "", "spec fingerprint (prefix) to gate; default: the newest record's")
		window := fs.Int("window", 0, "baseline window: median over up to this many prior runs (0: 5)")
		threshold := fs.Float64("threshold", 0, "allowed regression over the baseline median, percent (0: 25)")
		metrics := fs.String("metrics", "", "comma-separated gated metrics (wall, phase.*, counter.*, latency.*.p50; empty: wall)")
		minRuns := fs.Int("min-runs", 0, "history length below which the gate passes vacuously (0: 2)")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		gated := splitList(*metrics)
		for _, name := range gated {
			if err := ledger.ValidateMetric(name); err != nil {
				fmt.Fprintf(stderr, "merced history check: %v\n", err)
				return 2
			}
		}
		led, code := open(*dir)
		if led == nil {
			return code
		}
		entries, err := led.List()
		if err != nil {
			return fail(err)
		}
		latest, ok := latestEntry(entries, *fp)
		if !ok {
			// A gate with nothing to judge passes: the first CI run on a
			// fresh store must not fail its own bootstrap.
			fmt.Fprintln(stdout, "history check: no matching records — nothing to judge, passing")
			return 0
		}
		hist, err := led.History(latest.Fingerprint, latest.MachineFP)
		if err != nil {
			return fail(err)
		}
		rep, err := ledger.Check(hist, ledger.CheckOptions{
			Window: *window, ThresholdPct: *threshold,
			Metrics: gated, MinRuns: *minRuns,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "history check: gating %s (%s) on machine %s\n",
			latest.Summary, latest.Fingerprint[:12], latest.MachineFP)
		if err := rep.Write(stdout); err != nil {
			return fail(err)
		}
		if rep.Regressed() {
			return 1
		}
		return 0

	default:
		return usage()
	}
}

// resolveRecord fetches a record by ID, with "latest" resolving to the
// highest-sequence record on file.
func resolveRecord(led *ledger.Ledger, id string) (*ledger.Record, error) {
	if id == "latest" {
		entries, err := led.List()
		if err != nil {
			return nil, err
		}
		latest, ok := latestEntry(entries, "")
		if !ok {
			return nil, fmt.Errorf("ledger is empty")
		}
		id = latest.ID
	}
	return led.Get(id)
}

// latestEntry picks the highest-sequence entry, optionally restricted to
// a spec-fingerprint prefix.
func latestEntry(entries []ledger.IndexEntry, fpPrefix string) (ledger.IndexEntry, bool) {
	var best ledger.IndexEntry
	found := false
	for _, e := range entries {
		if fpPrefix != "" && !strings.HasPrefix(e.Fingerprint, fpPrefix) {
			continue
		}
		if !found || e.Seq > best.Seq {
			best, found = e, true
		}
	}
	return best, found
}
