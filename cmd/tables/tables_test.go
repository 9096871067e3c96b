package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTable10Pinned pins the Table 10 rows (l_k=16, seed 1) of the
// circuits small enough to compile in a unit test, minus the CPU column,
// so the reproduction record in EXPERIMENTS.md and results/ cannot drift
// from the code silently.
func TestTable10Pinned(t *testing.T) {
	const want = `Circuit,DFFs,DFFs on SCC,cut nets on SCC,nets cut
s510,6,6,3,40
s420.1,16,16,9,37
s641,19,15,0,26
s713,19,15,6,56
s820,5,5,2,76
s832,5,5,7,98
s838.1,32,32,9,94
s1423,74,71,63,165
`
	sel := []string{"s510", "s420.1", "s641", "s713", "s820", "s832", "s838.1", "s1423"}
	var b bytes.Buffer
	if err := table1011(sel, 16, 1).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if i := strings.LastIndexByte(line, ','); i >= 0 {
			got.WriteString(line[:i] + "\n")
		}
	}
	if got.String() != want {
		t.Errorf("Table 10 drifted:\n%s\nwant:\n%s", got.String(), want)
	}
}
