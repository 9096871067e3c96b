package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {time.Second, 30},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBucketUpperContainsBucket(t *testing.T) {
	for i := 1; i < 64; i++ {
		lo := time.Duration(1) << uint(i-1)
		hi := time.Duration(BucketUpper(i))
		if bucketIndex(lo) != i || bucketIndex(hi) != i {
			t.Fatalf("bucket %d: lo=%d hi=%d map to %d/%d", i, lo, hi, bucketIndex(lo), bucketIndex(hi))
		}
		if i < 63 && bucketIndex(hi+1) != i+1 {
			t.Fatalf("bucket %d upper+1 should land in next bucket", i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 90 fills in [1024,2047] (bucket 11), 10 fills in [1<<20, ...] (bucket 21).
	for i := 0; i < 90; i++ {
		h.Observe(1500 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Duration(1 << 20))
	}
	if got := h.Quantile(0.50); got != BucketUpper(11) {
		t.Errorf("p50 = %d, want %d", got, BucketUpper(11))
	}
	if got := h.Quantile(0.90); got != BucketUpper(11) {
		t.Errorf("p90 = %d, want %d", got, BucketUpper(11))
	}
	if got := h.Quantile(0.99); got != BucketUpper(21) {
		t.Errorf("p99 = %d, want %d", got, BucketUpper(21))
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	wantSum := int64(90*1500 + 10*(1<<20))
	if h.Sum() != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum(), wantSum)
	}
	// The nearest rank is ⌈q·n⌉: p99 of a small sample is its maximum,
	// not the fill below it.
	for _, c := range []struct {
		fills []time.Duration
		want  int64
	}{
		{[]time.Duration{20 * time.Microsecond, 5 * time.Millisecond}, BucketUpper(bucketIndex(5 * time.Millisecond))},
		{append(repeat(time.Microsecond, 49), time.Second), BucketUpper(bucketIndex(time.Second))},
	} {
		var h Histogram
		for _, d := range c.fills {
			h.Observe(d)
		}
		if got := h.Quantile(0.99); got != c.want {
			t.Errorf("%d fills: p99 = %d, want %d", len(c.fills), got, c.want)
		}
	}
	// An exact rank stays exact despite float error: 0.07·100 evaluates
	// to 7.000000000000001, and the 7th of 100 fills is the last 1 ns one.
	var e Histogram
	for _, d := range append(repeat(1, 7), repeat(time.Microsecond, 93)...) {
		e.Observe(d)
	}
	if got, want := e.Quantile(0.07), BucketUpper(1); got != want {
		t.Errorf("p7 of 100 = %d, want %d", got, want)
	}
}

func TestHistogramMergeOrderIndependent(t *testing.T) {
	fillA := func(h *Histogram) {
		h.Observe(100)
		h.Observe(5000)
	}
	fillB := func(h *Histogram) {
		h.Observe(0)
		h.Observe(1 << 30)
	}
	var ab, ba, direct Histogram
	var a1, b1, a2, b2 Histogram
	fillA(&a1)
	fillB(&b1)
	ab.Merge(&a1)
	ab.Merge(&b1)
	fillA(&a2)
	fillB(&b2)
	ba.Merge(&b2)
	ba.Merge(&a2)
	fillA(&direct)
	fillB(&direct)
	if ab != ba || ab != direct {
		t.Fatal("merge is not order-independent")
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, 1, 3, 1000, 1 << 20, 1 << 40} {
		h.Observe(d)
	}
	s := h.Summary()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSummary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	h2 := back.Histogram()
	if *h2 != h {
		t.Fatalf("round trip mismatch:\n %+v\n %+v", h, *h2)
	}
	if s.P50NS != h.Quantile(0.5) || s.P99NS != h.Quantile(0.99) {
		t.Fatal("summary quantiles disagree with histogram")
	}
}

func TestHistogramSetTableDeterministic(t *testing.T) {
	render := func(order []string) string {
		hs := NewHistogramSet()
		for _, n := range order {
			hs.Observe(n, 1500*time.Nanosecond)
			hs.Observe(n, 2*time.Millisecond)
		}
		var buf bytes.Buffer
		if err := hs.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]string{"latency.phase.parse", "latency.sweep.job", "latency.phase.retime"})
	b := render([]string{"latency.sweep.job", "latency.phase.retime", "latency.phase.parse"})
	if a != b {
		t.Fatalf("table depends on fill order:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "latency.phase.parse") || !strings.Contains(a, "p99") {
		t.Fatalf("unexpected table:\n%s", a)
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "latency") {
		t.Fatalf("missing header: %q", lines[0])
	}
}

func TestHistogramSetMerge(t *testing.T) {
	a, b := NewHistogramSet(), NewHistogramSet()
	a.Observe("x", 100)
	b.Observe("x", 100)
	b.Observe("y", 5000)
	a.Merge(b)
	if a.Get("x").Count() != 2 || a.Get("y").Count() != 1 {
		t.Fatalf("merge miscounted: %v", a.Summaries())
	}
	if got := a.Names(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("names = %v", got)
	}
}

func repeat(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}
