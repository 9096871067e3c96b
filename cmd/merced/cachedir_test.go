package main

// End-to-end tests for file circuits under -cache-dir: the parsed stage is
// keyed by circuit reference, so only built-in names may be persisted by
// name. A file must be read afresh on every run, whatever its name and
// whatever an earlier run left in the store.

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/cas"
	"repro/internal/sweep"
)

// writeBuiltin writes the built-in circuit name's netlist to path.
func writeBuiltin(t *testing.T, name, path string) {
	t.Helper()
	c, err := bench89.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBench(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// storeCache opens the store under dir as one process's -cache-dir cache;
// a nil-dir call returns nil, the run without -cache-dir.
func storeCache(t *testing.T, dir string) *sweep.Cache {
	t.Helper()
	if dir == "" {
		return nil
	}
	st, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.NewCacheWithStore(0, st)
}

// report runs `merced [-circuit|-file] ... -lk 16 [-cache-dir dir]`
// in-process and returns the first report line (the circuit summary).
func report(t *testing.T, rr reportRun, dir string) string {
	t.Helper()
	rr.lk, rr.beta, rr.seed = 16, 50, 1
	rr.cache = storeCache(t, dir)
	var out, errb bytes.Buffer
	if code := runReport(context.Background(), rr, &out, &errb); code != 0 {
		t.Fatalf("runReport exit %d: %s", code, errb.String())
	}
	if rr.cache != nil {
		rr.cache.Flush()
	}
	line, _, _ := strings.Cut(out.String(), "\n")
	return line
}

// A file named like a built-in must not be served the built-in's parse
// from the store.
func TestFileNamedLikeBuiltinUnderCacheDir(t *testing.T) {
	t.Chdir(t.TempDir())
	writeBuiltin(t, "s510", "s27")
	dir := "store"

	builtin := report(t, reportRun{circuit: "s27"}, dir)
	if !strings.Contains(builtin, "4 PI, 1 PO, 3 DFF") {
		t.Fatalf("built-in s27: %s", builtin)
	}
	want := report(t, reportRun{file: "s27"}, "")
	if !strings.Contains(want, "19 PI, 161 PO, 6 DFF") {
		t.Fatalf("file s27 without -cache-dir: %s", want)
	}
	if got := report(t, reportRun{file: "s27"}, dir); got != want {
		t.Errorf("file s27 under -cache-dir:\n got %s\nwant %s", got, want)
	}
}

// An edited .bench file must be re-read under a warm store, by the compile
// report and by a sweep alike.
func TestEditedFileUnderCacheDir(t *testing.T) {
	t.Chdir(t.TempDir())
	dir := "store"
	sweepOut := func(dir string) string {
		t.Helper()
		cfg := sweepRun{circuits: "a.bench", lks: "16", betas: "50", seeds: "1", workers: 1,
			format: "text", noTiming: true, cache: storeCache(t, dir)}
		var out, errb bytes.Buffer
		if code := runSweep(context.Background(), cfg, &out, &errb); code != 0 {
			t.Fatalf("runSweep exit %d: %s", code, errb.String())
		}
		if cfg.cache != nil {
			cfg.cache.Flush()
		}
		return out.String()
	}

	writeBuiltin(t, "s510", "a.bench")
	report(t, reportRun{file: "a.bench"}, dir)
	sweepOut(dir)

	writeBuiltin(t, "s27", "a.bench")
	want := report(t, reportRun{file: "a.bench"}, "")
	if !strings.Contains(want, "4 PI, 1 PO, 3 DFF") {
		t.Fatalf("edited a.bench without -cache-dir: %s", want)
	}
	if got := report(t, reportRun{file: "a.bench"}, dir); got != want {
		t.Errorf("edited a.bench under -cache-dir:\n got %s\nwant %s", got, want)
	}
	if got, want := sweepOut(dir), sweepOut(""); got != want {
		t.Errorf("sweep of edited a.bench under -cache-dir:\n--- got\n%s--- want\n%s", got, want)
	}
}
