package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runTiny runs one workload at smoke scale and decodes its result line.
func runTiny(t *testing.T, w workload, trace, corrupt bool) (int, result, string) {
	t.Helper()
	e := &env{seed: 3, seconds: 0.05, trace: trace, tiny: true, corrupt: corrupt, workers: benchWorkers()}
	var stdout, stderr bytes.Buffer
	code := execute(w, e, t.TempDir(), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", w.name, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			code, res, out := runTiny(t, w, trace, false)
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", w.name, trace, code, res, out)
			}
			want := e2eUnits
			if trace {
				want = layerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, u := range want {
				m, ok := res.Metrics[u.name]
				if !ok || m.Unit != u.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, u.name, m, u.unit)
				}
			}
			if !trace && !strings.Contains(out, `"digest":"`) {
				t.Errorf("%s: no digest line", w.name)
			}
		}
	}
}

func TestCorruptedOutputFailsCheck(t *testing.T) {
	for _, w := range workloads {
		code, res, out := runTiny(t, w, false, true)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted outputs passed the checks: exit %d, result %+v\n%s", w.name, code, res, out)
		}
	}
}

func TestDigestRepeats(t *testing.T) {
	digest := func() string {
		_, _, out := runTiny(t, sweepTables, false, false)
		i := strings.Index(out, `"digest":"`)
		if i < 0 {
			t.Fatal("no digest")
		}
		return out[i : i+44]
	}
	if a, b := digest(), digest(); a != b {
		t.Errorf("digest changed between identical runs: %s vs %s", a, b)
	}
}
