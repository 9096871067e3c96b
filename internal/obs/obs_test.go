package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestDisabledContextIsInert(t *testing.T) {
	ctx := context.Background()
	if Enabled(ctx) {
		t.Fatal("bare context reports Enabled")
	}
	sp := Start(ctx, "stage", "parse")
	if sp.rec != nil {
		t.Fatal("Start on a bare context allocated a recorder")
	}
	sp.End() // must not panic
	if got := With(ctx, nil, 0); got != ctx {
		t.Fatal("With(nil recorder) rewrapped the context")
	}
	if got := LaneContext(ctx, "worker"); got != ctx {
		t.Fatal("LaneContext without a recorder rewrapped the context")
	}
	Start(nil, "stage", "x").End() // nil ctx is valid too
}

func TestRecorderSpansAndLanes(t *testing.T) {
	rec := NewRecorder()
	ctx := With(context.Background(), rec, 0)
	if !Enabled(ctx) {
		t.Fatal("context with recorder reports disabled")
	}

	sp := Start(ctx, "stage", "parse s27")
	sp.End()

	wctx := LaneContext(ctx, "sweep-worker-0")
	Start(wctx, "sweep", "job a").End()
	Start(wctx, "sweep", "job b").End()

	if got := rec.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if id := rec.Lane("sweep-worker-0"); id != 1 {
		t.Fatalf("lane memoization broken: re-registering returned id %d, want 1", id)
	}
	if names := rec.LaneNames(); len(names) != 2 || names[0] != "main" || names[1] != "sweep-worker-0" {
		t.Fatalf("LaneNames = %v", names)
	}
}

// TestWriteTraceSchema pins the exporter's contract: a valid JSON array of
// trace_event objects, process/thread metadata present, and per-lane
// timestamps monotonically nondecreasing.
func TestWriteTraceSchema(t *testing.T) {
	rec := NewRecorder()
	ctx := With(context.Background(), rec, 0)
	outer := Start(ctx, "campaign", "campaign s27")
	for _, name := range []string{"w0", "w1"} {
		wctx := LaneContext(ctx, name)
		for i := 0; i < 3; i++ {
			Start(wctx, "batch", "b").End()
		}
	}
	outer.End()

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}

	threadNames := map[int]string{}
	lastTS := map[int]float64{}
	spans := 0
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threadNames[e.TID] = e.Args["name"].(string)
			}
		case "X":
			spans++
			if e.PID != 1 {
				t.Fatalf("span pid = %d, want 1", e.PID)
			}
			if e.TS < lastTS[e.TID] {
				t.Fatalf("lane %d timestamps regress: %v after %v", e.TID, e.TS, lastTS[e.TID])
			}
			lastTS[e.TID] = e.TS
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	if spans != 7 {
		t.Fatalf("exported %d spans, want 7", spans)
	}
	for tid, want := range map[int]string{0: "main", 1: "w0", 2: "w1"} {
		if threadNames[tid] != want {
			t.Fatalf("thread %d named %q, want %q", tid, threadNames[tid], want)
		}
	}
}

func TestMetricsTableDeterminism(t *testing.T) {
	build := func() *Metrics {
		m := NewMetrics()
		m.Add("retime.spfa_relaxations", 41)
		m.Add("flow.trees", 7)
		m.Add("flow.trees", 3)
		m.AddGauge("flow.injected_flow", 2.5)
		return m
	}
	var a, b bytes.Buffer
	if err := build().WriteTable(&a, false); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteTable(&b, false); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("table not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	want := []string{"metric", "flow.injected_flow", "flow.trees", "retime.spfa_relaxations"}
	if len(lines) != len(want) {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), len(want), a.String())
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, want[i]) {
			t.Fatalf("line %d = %q, want prefix %q", i, l, want[i])
		}
	}
	if !strings.Contains(lines[2], "10") {
		t.Fatalf("flow.trees line %q missing summed value 10", lines[2])
	}

	js, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if js2, _ := json.Marshal(build()); string(js) != string(js2) {
		t.Fatal("JSON form not deterministic")
	}
}

func TestLogger(t *testing.T) {
	if l := L(context.Background()); l != nopLogger {
		t.Fatal("bare context did not yield the no-op logger")
	}
	if l := L(nil); l != nopLogger {
		t.Fatal("nil context did not yield the no-op logger")
	}

	if l, err := NewLogger(nil, "off", "text"); err != nil || l != nil {
		t.Fatalf("level off: got (%v, %v), want (nil, nil)", l, err)
	}
	if _, err := NewLogger(nil, "loud", "text"); err == nil {
		t.Fatal("unknown level accepted")
	}
	if _, err := NewLogger(nil, "info", "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}

	var buf bytes.Buffer
	l, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithLogger(context.Background(), l)
	L(ctx).Info("dropped")
	L(ctx).Warn("kept", "k", 1)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log output is not one JSON object: %v (%q)", err, buf.String())
	}
	if line["msg"] != "kept" || line["k"] != float64(1) {
		t.Fatalf("unexpected record %v", line)
	}
	if strings.Contains(buf.String(), "dropped") {
		t.Fatal("below-threshold record was emitted")
	}
}

func TestMetricsTableLatencyAndGauges(t *testing.T) {
	m := NewMetrics()
	m.Add("serve.submitted", 3)
	m.AddGauge("cache.capacity", 1000000)
	m.AddGauge("flow.injected_flow", 2.5)
	var plain bytes.Buffer
	if err := m.WriteTable(&plain, true); err != nil {
		t.Fatal(err)
	}
	want := `metric              value
cache.capacity      1000000
flow.injected_flow  2.5
serve.submitted     3
`
	if plain.String() != want {
		t.Fatalf("table:\n%s\nwant:\n%s", plain.String(), want)
	}

	// A histogram renders only under timing, after one blank line.
	m.Observe("latency.x", time.Millisecond)
	var untimed, timed bytes.Buffer
	if err := m.WriteTable(&untimed, false); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteTable(&timed, true); err != nil {
		t.Fatal(err)
	}
	if untimed.String() != want {
		t.Fatalf("untimed table carries latency:\n%s", untimed.String())
	}
	if !strings.HasPrefix(timed.String(), want+"\nlatency") {
		t.Fatalf("timed table:\n%s", timed.String())
	}
}
