// Command perfbench is the repository benchmark: it drives one workload
// through Merced's public layer functions for a fixed number of seconds and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as the last line of standard output.
//
//	perfbench --workload sweep-tables --seed 1 --seconds 35 --trace 0
//
// Every workload generates its inputs from --seed, checks every output it
// produces, and prints a deterministic digest of its timing-free renders so
// that two builds can be shown to compute identical results. See README.md
// for the metric definitions.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ledger"
)

// workload is one traffic shape of the benchmark.
type workload struct {
	name string
	// why records, in one sentence, why the workload is in the benchmark.
	why string
	// setup builds the workload's inputs from the seed; it runs
	// setupRepeats times and its process CPU time is setup_s.
	setup func(ctx context.Context, e *env) (any, error)
	// run executes the timed section against the last setup's state.
	run func(ctx context.Context, e *env, state any) error
}

var workloads = []workload{sweepTables, coverCampaign, serveOpen}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

// env is what a workload run reads and writes: its configuration, the
// tracer, the output checks and the metrics it reports.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every workload to seconds-long smoke scale (self-test).
	tiny bool
	// corrupt tampers with each timed-section output before it is
	// checked, to prove the checks fail (self-test).
	corrupt bool
	workers int

	tr *tracer

	// attempted counts operations; failed those that errored or failed an
	// output check, refused those the server turned away.
	attempted int
	failed    int
	refused   int
	failures  []string

	digest digester

	// e2e holds the gated end-to-end metrics, detail the workload's own
	// named metrics, layer the traced run's per-layer metrics.
	e2e    map[string]float64
	detail []namedMetric
	layer  map[string]float64
	// tracedTrees is the number of flow trees grown in the traced rounds.
	tracedTrees float64
}

type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// check records one output check; a failed check counts as a failed
// operation and fails the run.
func (e *env) check(what string, err error) {
	if err != nil {
		e.failed++
		if len(e.failures) < 10 {
			e.failures = append(e.failures, what+": "+err.Error())
		}
	}
}

func (e *env) addDetail(name string, v float64, unit, note string) {
	e.detail = append(e.detail, namedMetric{name, v, unit, note})
}

// End-to-end metrics: every workload reports each of them (see README.md
// for what an operation is on each workload).
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"quality_pct", "%"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// Per-layer metrics of the traced run; a layer the workload does not
// exercise reports 0.
var layerUnits = []struct{ name, unit string }{
	{"netlist.parse_ms", "ms"},
	{"graph.analyze_ms", "ms"},
	{"flow.saturate_ms", "ms"},
	{"flow.trees", "count"},
	{"flow.us_per_tree", "us"},
	{"partition.self_ms", "ms"},
	{"partition.group_ms", "ms"},
	{"partition.assign_ms", "ms"},
	{"partition.dfs_visits", "count"},
	{"partition.resplits", "count"},
	{"partition.cut_nets", "count"},
	{"retime.price_ms", "ms"},
	{"retime.relaxations", "count"},
	{"core.self_ms", "ms"},
	{"sweep.self_ms", "ms"},
	{"sweep.saturated_hit_ratio", "ratio"},
	{"sweep.busy_ratio", "ratio"},
	{"fault.campaign_ms", "ms"},
	{"fault.batches", "count"},
	{"fault.escalation_batches", "count"},
	{"fault.survivors", "count"},
	{"fault.triage_ratio", "ratio"},
	{"sim.faults_per_batch", "count"},
	{"serve.self_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.saturated_hit_ratio", "ratio"},
	{"serve.queue_depth_max", "count"},
	{"serve.req_tail_ms", "ms"},
	{"loadgen.self_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: sweep-tables, cover-campaign or serve-open")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 35, "length of the timed section in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: benchWorkers()}
	return execute(w, e, *traceDir, stdout, stderr)
}

// execute runs one workload and prints its result line; it returns the
// process exit code.
func execute(w workload, e *env, traceDir string, stdout, stderr io.Writer) int {
	res, err := runWorkload(context.Background(), w, e, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if e.trace {
		if err := e.tr.writeFile(traceDir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", w.name, e.seed)); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
	}
	for _, f := range e.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// benchWorkers caps every pool, client and server at the machine's CPU
// count and at two.
func benchWorkers() int {
	return min(2, runtime.NumCPU())
}

// runWorkload runs set-up setupRepeats times and the timed section once,
// prints the run record and digest lines, and assembles the result line.
func runWorkload(ctx context.Context, w workload, e *env, stdout io.Writer) (*result, error) {
	m := ledger.Machine()
	header := map[string]any{
		"workload": w.name, "why": w.why, "seed": e.seed, "seconds": e.seconds, "trace": e.trace,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"workers": e.workers, "machine": m,
	}
	if err := printJSONLine(stdout, map[string]any{"run": header}); err != nil {
		return nil, err
	}

	e.tr = newTracer()
	// Outputs are corrupted only in the timed section, so that every
	// workload's own checks are the ones shown to fail.
	corrupt := e.corrupt
	e.corrupt = false
	// Set-up is timed in process CPU time: on a shared host its wall time
	// also counts the CPU time the hypervisor steals.
	var state any
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		state = nil // let the previous set-up's inputs be collected first
		runtime.GC()
		start := cpuTime()
		st, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
		state = st
	}
	runtime.GC()
	e.corrupt = corrupt

	e.e2e = map[string]float64{}
	e.layer = map[string]float64{}
	e.tr.setOn(e.trace)
	start := time.Now()
	err := w.run(ctx, e, state)
	timed := time.Since(start)
	e.tr.setOn(false)
	if err != nil {
		return nil, err
	}
	if e.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	e.e2e["setup_s"] = median(setups)
	e.e2e["peak_rss_mb"] = peakRSSMiB()
	if _, ok := e.e2e["ok_ratio"]; !ok {
		e.e2e["ok_ratio"] = float64(e.attempted-e.failed-e.refused) / float64(e.attempted)
	}
	e.addDetail("setup_s", e.e2e["setup_s"], "s", "median process CPU time of "+strconv.Itoa(setupRepeats)+" set-ups")
	e.addDetail("peak_rss_mb", e.e2e["peak_rss_mb"], "MiB", "")
	e.addDetail("failed_ratio", float64(e.failed+e.refused)/float64(e.attempted), "ratio",
		fmt.Sprintf("%d of %d operations failed, %d refused", e.failed, e.attempted, e.refused))

	if err := printJSONLine(stdout, map[string]any{"workload": w.name, "digest": e.digest.sum(), "metrics": e.detail}); err != nil {
		return nil, err
	}

	res := &result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed + e.refused, Metrics: map[string]metricValue{}}
	if e.trace {
		e.tr.layerMetrics(e.layer, timed)
		if e.tracedTrees > 0 {
			e.layer["flow.us_per_tree"] = 1000 * e.layer["flow.saturate_ms"] * float64(max(e.tr.rounds, 1)) / e.tracedTrees
		}
		if err := printJSONLine(stdout, map[string]any{"workload": w.name, "self_time_share": e.tr.selfShares()}); err != nil {
			return nil, err
		}
		for _, u := range layerUnits {
			res.Metrics[u.name] = metricValue{e.layer[u.name], u.unit}
		}
	} else {
		for _, u := range e2eUnits {
			v, ok := e.e2e[u.name]
			if !ok {
				return nil, fmt.Errorf("workload did not report %s", u.name)
			}
			res.Metrics[u.name] = metricValue{v, u.unit}
		}
	}
	return res, nil
}

func printJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakRSSMiB reads the process's peak resident set size (VmHWM); it
// returns 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// roundTime is one round's wall and process CPU time.
type roundTime struct {
	wall, cpu time.Duration
}

// timedRounds runs the n rounds of a fixed-work workload and returns each
// round's times. A host running far slower than usual stops early, after
// round 0 at least, so a run stays within its time allowance.
func timedRounds(e *env, n int, round func(i int) error) ([]roundTime, error) {
	limit := time.Duration(e.seconds * 1.25 * float64(time.Second))
	var spent time.Duration
	times := make([]roundTime, 0, n)
	for i := 0; i < n && (i == 0 || spent < limit); i++ {
		wall, cpu := time.Now(), cpuTime()
		if err := round(i); err != nil {
			return nil, err
		}
		t := roundTime{time.Since(wall), cpuTime() - cpu}
		times = append(times, t)
		spent += t.wall
	}
	e.tr.rounds = len(times)
	return times, nil
}

// cpuPerOp is the median over the rounds of a round's process CPU time per
// operation, in ms; every round runs ops operations.
func cpuPerOp(ts []roundTime, ops int) float64 {
	per := make([]float64, len(ts))
	for i, t := range ts {
		per[i] = ms(t.cpu) / float64(ops)
	}
	return median(per)
}

// totalWall sums the rounds' wall times.
func totalWall(ts []roundTime) time.Duration {
	var wall time.Duration
	for _, t := range ts {
		wall += t.wall
	}
	return wall
}

// tracedPartition records the traced rounds' partition split, per round,
// and their flow tree total, which flow.us_per_tree divides by.
func (e *env) tracedPartition(groupMS, assignMS, trees float64) {
	rounds := float64(max(e.tr.rounds, 1))
	e.layer["partition.group_ms"] = groupMS / rounds
	e.layer["partition.assign_ms"] = assignMS / rounds
	e.tracedTrees = trees
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
