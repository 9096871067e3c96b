// Package ledger is the persistent run ledger: every CLI or serve run
// appends one versioned, self-describing record — spec fingerprint, tool
// and Go version, machine fingerprint, wall/phase timings, latency
// summaries, kernel counters, cache tier stats — into the content-
// addressed store (internal/cas) under its own "ledger" stage. Records
// for identical specs chain into a history, which is what `merced
// history` lists, diffs, and regression-checks: performance triage
// becomes diffing persisted records instead of eyeballing CI artifact
// JSON.
//
// Versioning policy mirrors jobspec's "v" (DESIGN.md §13): adding an
// optional field is a compatible change within SchemaVersion; renaming,
// removing, or changing a field's meaning bumps it. The CAS layer keys
// entries by schema, so a bumped reader simply sees a clean miss on old
// records rather than misparsing them.
//
// Concurrency: the ledger index is one read-modify-write CAS entry.
// Within a process, Append serializes under a mutex; across processes,
// the last writer wins and the losing run's index entry is orphaned (its
// record entry survives and GC treats it like any aged CAS entry). That
// is the same best-effort stance the artifact cache takes toward
// concurrent writers, and a regression gate reading a handful of recent
// records is insensitive to a rare lost entry.
package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// SchemaVersion is the run-record schema this build reads and writes; it
// doubles as the CAS entry schema for the ledger stage.
const SchemaVersion = 1

// Stage is the CAS stage name that namespaces ledger entries away from
// pipeline artifacts.
const Stage = "ledger"

// indexKey is the CAS key of the read-modify-write history index.
const indexKey = "index"

// ToolInfo identifies the binary that produced a record.
type ToolInfo struct {
	// Version is the main module version from build info ("(devel)" for
	// a plain `go build` tree).
	Version string `json:"version"`
	// Go is the toolchain version (runtime.Version()).
	Go string `json:"go"`
}

// MachineInfo fingerprints the hardware and scheduling envelope a run
// executed under. Latency comparisons are only meaningful within one
// fingerprint, which is why History and the check gate filter on FP.
type MachineInfo struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPU is the best-effort CPU model string (/proc/cpuinfo on Linux;
	// empty elsewhere).
	CPU string `json:"cpu,omitempty"`
	// FP is the short hex fingerprint of (OS, Arch, NumCPU, CPU) — note:
	// not GOMAXPROCS, which is a per-run knob, recorded alongside.
	FP string `json:"fp"`
}

// Record is one persisted run. Timing-derived fields (Unix, WallNS,
// PhasesNS, Latency, tool/machine metadata) vary between runs; Counters,
// Gauges, Jobs, and Failed are deterministic for a fixed spec — the
// round-trip determinism CI step pins exactly that split.
type Record struct {
	V int `json:"v"`
	// ID is "<fp12>-<seq>": the first 12 hex digits of the spec
	// fingerprint plus the ledger-wide sequence number Append assigned.
	ID  string `json:"id"`
	Seq uint64 `json:"seq"`
	// Fingerprint is the full jobspec fingerprint this record chains on.
	Fingerprint string `json:"fingerprint"`
	// Summary is the human label of the spec ("cover s1423 lk=16 seed=1").
	Summary string `json:"summary"`
	Kind    string `json:"kind"`
	// Unix is the record's creation time in seconds.
	Unix    int64       `json:"unix"`
	Tool    ToolInfo    `json:"tool"`
	Machine MachineInfo `json:"machine"`

	WallNS int64 `json:"wall_ns"`
	Jobs   int   `json:"jobs"`
	Failed int   `json:"failed"`
	// PhasesNS sums per-phase wall time, keyed by core phase name.
	PhasesNS map[string]int64 `json:"phases_ns,omitempty"`
	// Latency holds the run's histogram summaries, keyed by histogram
	// name (latency.sweep.job, latency.phase.saturate, ...).
	Latency map[string]obs.HistogramSummary `json:"latency,omitempty"`
	// Counters and Gauges are the deterministic metrics table.
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// Cache is the run's artifact-cache traffic (sweep kinds).
	Cache *sweep.CacheStats `json:"cache,omitempty"`
}

// IndexEntry is one line of the history index: enough to list and filter
// without fetching every record.
type IndexEntry struct {
	ID          string `json:"id"`
	Seq         uint64 `json:"seq"`
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Summary     string `json:"summary"`
	Unix        int64  `json:"unix"`
	MachineFP   string `json:"machine_fp"`
}

// index is the persisted read-modify-write history head.
type index struct {
	V    int          `json:"v"`
	Next uint64       `json:"next"`
	Runs []IndexEntry `json:"runs"`
}

// NewRecord builds an unappended record from a spec and its run summary,
// stamping time, tool, and machine. Append assigns Seq and ID.
func NewRecord(spec *jobspec.Spec, sum *jobspec.RunSummary) *Record {
	rec := &Record{
		V:           SchemaVersion,
		Fingerprint: spec.Fingerprint(),
		Summary:     spec.Summary(),
		Kind:        string(sum.Kind),
		Unix:        time.Now().Unix(),
		Tool:        toolInfo(),
		Machine:     Machine(),
		WallNS:      int64(sum.Wall),
		Jobs:        sum.Jobs,
		Failed:      sum.Failed,
		Cache:       sum.Cache,
	}
	sum.Phases.Each(func(name string, d time.Duration) {
		if d > 0 {
			if rec.PhasesNS == nil {
				rec.PhasesNS = make(map[string]int64)
			}
			rec.PhasesNS[name] = int64(d)
		}
	})
	if m := sum.Metrics; m != nil {
		rec.Latency = m.Latency.Summaries()
		if len(m.Counters) > 0 {
			rec.Counters = m.Counters
		}
		if len(m.Gauges) > 0 {
			rec.Gauges = m.Gauges
		}
	}
	return rec
}

func toolInfo() ToolInfo {
	ti := ToolInfo{Version: "unknown", Go: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		ti.Version = bi.Main.Version
	}
	return ti
}

// Machine fingerprints the current host. The FP hashes only the stable
// hardware identity (OS, Arch, NumCPU, CPU model); GOMAXPROCS rides
// along as data because it changes run-to-run comparability without
// changing the machine.
func Machine() MachineInfo {
	mi := MachineInfo{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
	}
	mi.FP = shortHash(mi.OS + "|" + mi.Arch + "|" + fmt.Sprint(mi.NumCPU) + "|" + mi.CPU)
	return mi
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, best
// effort: an empty string on any failure (non-Linux, masked procfs).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, value, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

// Ledger is a run ledger over one CAS store. Safe for concurrent use
// within a process.
type Ledger struct {
	store *cas.Store
	mu    chan struct{} // 1-slot semaphore: Append's read-modify-write section
}

// Open wraps an existing CAS store. The ledger shares the store with the
// pipeline artifact tiers; its entries live under the "ledger" stage.
func Open(store *cas.Store) *Ledger {
	l := &Ledger{store: store, mu: make(chan struct{}, 1)}
	return l
}

// readIndex loads the history index; a missing index is an empty one.
func (l *Ledger) readIndex() (*index, error) {
	payload, ok, err := l.store.Get(Stage, indexKey, SchemaVersion)
	if err != nil {
		return nil, fmt.Errorf("ledger: reading index: %w", err)
	}
	if !ok {
		return &index{V: SchemaVersion}, nil
	}
	var idx index
	if err := json.Unmarshal(payload, &idx); err != nil {
		return nil, fmt.Errorf("ledger: decoding index: %w", err)
	}
	return &idx, nil
}

// Append assigns the record its sequence number and ID, persists it, and
// links it into the index. It returns the assigned ID.
func (l *Ledger) Append(rec *Record) (string, error) {
	l.mu <- struct{}{}
	defer func() { <-l.mu }()
	idx, err := l.readIndex()
	if err != nil {
		return "", err
	}
	rec.Seq = idx.Next
	fp12 := rec.Fingerprint
	if len(fp12) > 12 {
		fp12 = fp12[:12]
	}
	rec.ID = fmt.Sprintf("%s-%d", fp12, rec.Seq)
	blob, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("ledger: encoding record: %w", err)
	}
	if err := l.store.Put(Stage, "run:"+rec.ID, SchemaVersion, blob); err != nil {
		return "", fmt.Errorf("ledger: storing record %s: %w", rec.ID, err)
	}
	idx.Next++
	idx.Runs = append(idx.Runs, IndexEntry{
		ID: rec.ID, Seq: rec.Seq, Fingerprint: rec.Fingerprint,
		Kind: rec.Kind, Summary: rec.Summary, Unix: rec.Unix,
		MachineFP: rec.Machine.FP,
	})
	blob, err = json.Marshal(idx)
	if err != nil {
		return "", fmt.Errorf("ledger: encoding index: %w", err)
	}
	if err := l.store.Put(Stage, indexKey, SchemaVersion, blob); err != nil {
		return "", fmt.Errorf("ledger: storing index: %w", err)
	}
	return rec.ID, nil
}

// List returns every indexed run in append (sequence) order.
func (l *Ledger) List() ([]IndexEntry, error) {
	idx, err := l.readIndex()
	if err != nil {
		return nil, err
	}
	runs := idx.Runs
	sort.Slice(runs, func(i, j int) bool { return runs[i].Seq < runs[j].Seq })
	return runs, nil
}

// Get fetches one record by ID.
func (l *Ledger) Get(id string) (*Record, error) {
	payload, ok, err := l.store.Get(Stage, "run:"+id, SchemaVersion)
	if err != nil {
		return nil, fmt.Errorf("ledger: reading record %s: %w", id, err)
	}
	if !ok {
		return nil, fmt.Errorf("ledger: no record %q", id)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("ledger: decoding record %s: %w", id, err)
	}
	return &rec, nil
}

// History returns the records chained on a spec fingerprint, oldest
// first. A non-empty machineFP keeps only runs from that machine —
// cross-machine latency comparisons are noise, so the check gate always
// passes one. Records indexed but unreadable (GC'd, quarantined) are
// skipped rather than failing the whole history.
func (l *Ledger) History(fingerprint, machineFP string) ([]*Record, error) {
	entries, err := l.List()
	if err != nil {
		return nil, err
	}
	var out []*Record
	for _, e := range entries {
		if e.Fingerprint != fingerprint {
			continue
		}
		if machineFP != "" && e.MachineFP != machineFP {
			continue
		}
		rec, err := l.Get(e.ID)
		if err != nil {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// shortHash is the 12-hex-digit FNV-ish fingerprint used for machine FPs.
func shortHash(s string) string {
	// FNV-1a 64-bit, rendered as 12 hex digits; collisions across the
	// handful of machines sharing one CAS dir are not a concern.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return fmt.Sprintf("%012x", h&0xffffffffffff)
}
