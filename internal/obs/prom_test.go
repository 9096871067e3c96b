package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve.jobs.submitted": "merced_serve_jobs_submitted",
		"cache.parsed.hits":    "merced_cache_parsed_hits",
		"flow.injected_flow":   "merced_flow_injected_flow",
		"weird-name!2":         "merced_weird_name_2",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// parseExposition is a minimal exposition-format checker: every line is a
// comment or `name{labels} value`, TYPE lines precede their samples, and
// histogram buckets are cumulative and monotone with a trailing +Inf.
func parseExposition(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	var lastBucketMetric string
	var lastCum uint64
	sawInf := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no sample value: %q", ln+1, line)
		}
		series, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = series[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
				base = b
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
		if types[base] == "histogram" && strings.HasSuffix(name, "_bucket") {
			le := series[strings.Index(series, `le="`)+len(`le="`):]
			le = le[:strings.IndexByte(le, '"')]
			cum, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("line %d: bucket count %q: %v", ln+1, val, err)
			}
			if base == lastBucketMetric && cum < lastCum {
				t.Fatalf("line %d: bucket counts not monotone (%d < %d)", ln+1, cum, lastCum)
			}
			lastBucketMetric, lastCum = base, cum
			if le == "+Inf" {
				sawInf[base] = true
			}
		} else {
			lastBucketMetric, lastCum = "", 0
		}
	}
	for name, typ := range types {
		if typ == "histogram" && !sawInf[name] {
			t.Fatalf("histogram %s missing +Inf bucket", name)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.Add("serve.submitted", 12)
	m.AddGauge("cache.capacity", 1000000)
	m.AddGauge("flow.injected_flow", 2.5)
	m.Observe("latency.serve.queue.wait", 0)
	m.Observe("latency.serve.queue.wait", 1500*time.Nanosecond)
	m.Observe("latency.serve.queue.wait", 2*time.Second)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE merced_cache_capacity gauge
merced_cache_capacity 1e+06
# TYPE merced_flow_injected_flow gauge
merced_flow_injected_flow 2.5
# TYPE merced_serve_submitted counter
merced_serve_submitted 12
# TYPE merced_serve_queue_wait_seconds histogram
merced_serve_queue_wait_seconds_bucket{le="0"} 1
merced_serve_queue_wait_seconds_bucket{le="2.047e-06"} 2
merced_serve_queue_wait_seconds_bucket{le="2.147483647"} 3
merced_serve_queue_wait_seconds_bucket{le="+Inf"} 3
merced_serve_queue_wait_seconds_sum 2.0000015
merced_serve_queue_wait_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	parseExposition(t, want)
}

func TestPromHistogramSum(t *testing.T) {
	m := NewMetrics()
	m.Observe("x", 2*time.Second)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "merced_x_seconds_sum 2\n") {
		t.Fatalf("sum not in seconds:\n%s", buf.String())
	}
}
