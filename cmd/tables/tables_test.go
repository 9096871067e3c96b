package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sweep"
)

// TestTable10Pinned pins Tables 10, 11 and 12 (seed 1) for the circuits
// small enough to compile in a unit test, minus the CPU column, so the
// reproduction record in EXPERIMENTS.md and results/ cannot drift from
// the code silently. The three tables share one artifact cache, so each
// circuit is saturated exactly once.
func TestTable10Pinned(t *testing.T) {
	tablesCache = sweep.NewCache(0)
	compiled = map[sweep.Job]*sweep.JobResult{}
	sel := []string{"s510", "s420.1", "s641", "s713", "s820", "s832", "s838.1", "s1423"}
	for _, tc := range []struct {
		name    string
		table   *report.Table
		dropCPU bool
		want    string
	}{
		{"Table 10", table1011(sel, 16, 1), true, `Circuit,DFFs,DFFs on SCC,cut nets on SCC,nets cut
s510,6,6,3,40
s420.1,16,16,9,37
s641,19,15,0,26
s713,19,15,6,56
s820,5,5,2,76
s832,5,5,7,98
s838.1,32,32,9,94
s1423,74,71,63,165
`},
		{"Table 11", table1011(sel24(sel), 24, 1), true, `Circuit,DFFs,DFFs on SCC,cut nets on SCC,nets cut
s641,19,15,0,17
s713,19,15,1,21
`},
		{"Table 12", table12(sel, 1), false, `Circuit,lk16 w/ retime,lk16 w/o,lk24 w/ retime,lk24 w/o
s510,39.69,62.71,0.00,0.00
s420.1,38.55,57.85,0.00,0.00
s641,21.95,41.82,15.53,31.97
s713,36.10,59.08,17.48,35.13
s820,42.04,64.96,0.00,0.00
s832,49.02,70.11,0.00,0.00
s838.1,40.02,63.03,39.24,62.27
s1423,42.89,62.90,0.00,0.00
`},
	} {
		var b bytes.Buffer
		if err := tc.table.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		got := b.String()
		if tc.dropCPU {
			var sb strings.Builder
			for _, line := range strings.SplitAfter(got, "\n") {
				if i := strings.LastIndexByte(line, ','); i >= 0 {
					sb.WriteString(line[:i] + "\n")
				}
			}
			got = sb.String()
		}
		if got != tc.want {
			t.Errorf("%s drifted:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
	if got := tablesCache.Stats().Saturated.Misses; got != int64(len(sel)) {
		t.Errorf("saturated misses = %d, want %d (one per circuit)", got, len(sel))
	}
}
