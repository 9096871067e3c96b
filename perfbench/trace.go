package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. It is
// the benchmark's own: the program under test is never asked to trace.
// Spans are kept in memory and written out once the run ends.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	on    bool // spans are being recorded (the timed section of a traced run)
	spans []span
	// added holds layer time measured by the program itself rather than by
	// a span (sweep.Run's per-job phase times).
	added  map[string]time.Duration
	rounds int // traced rounds the span totals cover
	// cost is the time spent inside the tracer's own calls, the overhead
	// tracing adds to the traced run.
	cost time.Duration
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer's origin.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Lane groups spans that ran on one goroutine (0 is the main one).
	Lane int `json:"lane"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), added: map[string]time.Duration{}}
}

// setOn starts or stops recording.
func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its id, or 0 when not recording.
func (t *tracer) begin(parent int, lane int, layer, name string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: int64(now.Sub(t.origin)), Lane: lane})
	t.cost += time.Since(now)
	return id
}

// finish closes a span opened by begin.
func (t *tracer) finish(id int) {
	if id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = int64(now.Sub(t.origin))
	t.cost += time.Since(now)
	t.mu.Unlock()
}

// add adds d to a layer's self time when recording.
func (t *tracer) add(layer string, d time.Duration) {
	t.mu.Lock()
	if t.on {
		t.added[layer] += d
	}
	t.mu.Unlock()
}

// selfTimes returns each layer's total self time: every span's duration
// minus the part of its interval that its child spans cover, plus the
// layer's added time.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Layer] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	for layer, d := range t.added {
		self[layer] += d
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfLayerMetric names the per-layer metric that carries each layer's
// self time.
var selfLayerMetric = map[string]string{
	"netlist":   "netlist.parse_ms",
	"graph":     "graph.analyze_ms",
	"flow":      "flow.saturate_ms",
	"partition": "partition.self_ms",
	"retime":    "retime.price_ms",
	"core":      "core.self_ms",
	"sweep":     "sweep.self_ms",
	"fault":     "fault.campaign_ms",
	"serve":     "serve.self_ms",
	"loadgen":   "loadgen.self_ms",
}

// layerMetrics writes each layer's self time, in ms per traced round, the
// span count and the tracing overhead, the tracer's own time as a share of
// the timed section's wall time, into m.
func (t *tracer) layerMetrics(m map[string]float64, wall time.Duration) {
	rounds := float64(max(t.rounds, 1))
	for layer, d := range t.selfTimes() {
		if name, ok := selfLayerMetric[layer]; ok {
			m[name] = ms(d) / rounds
		}
	}
	m["trace.spans"] = float64(len(t.spans))
	if wall > 0 {
		m["trace.overhead_pct"] = 100 * float64(t.cost) / float64(wall)
	}
}

// selfShares returns each layer's share of the total self time.
func (t *tracer) selfShares() map[string]float64 {
	self := t.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	out := map[string]float64{}
	for layer, d := range self {
		if total > 0 {
			out[layer] = float64(d) / float64(total)
		}
	}
	return out
}

// writeFile writes the spans as JSON into dir/name.
func (t *tracer) writeFile(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
