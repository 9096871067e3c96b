package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/netlist"
	"repro/internal/sweep"
)

var sweepTables = workload{
	name: "sweep-tables",
	why: "The Tables 10-12 matrix (s1423, s5378 x l_k {16,24} x beta {25,50,100}) through sweep.Run with its artifact cache, " +
		"where the cache reuses the saturated prefix so partitioning does most of the work.",
	setup: setupSweepTables,
	run:   runSweepTables,
}

// sweepTablesNominalRound is the wall time of one sweep-tables round (one
// 12-job matrix at 2 workers) on a 2-vCPU Xeon. The tables' third circuit,
// s9234, is left out: it would triple a round, and a run would hold too
// few rounds for a steady median.
const sweepTablesNominalRound = 4.0

// sweepRound is one matrix: the same circuits every round, a distinct
// flow seed per round.
type sweepRound struct {
	circuits map[string]circuitText
	jobs     []sweep.Job
}

func setupSweepTables(ctx context.Context, e *env) (any, error) {
	names, lks, betas, nominal := []string{"s1423", "s5378"}, []int{16, 24}, []int{25, 50, 100}, sweepTablesNominalRound
	if e.tiny {
		names, lks, betas, nominal = []string{"s510"}, []int{16}, []int{25, 50}, 0.05
	}
	cs, err := loadCircuits(names)
	if err != nil {
		return nil, err
	}
	var rounds []sweepRound
	for i := 0; i < e.rounds(nominal); i++ {
		r := sweepRound{circuits: map[string]circuitText{}}
		for _, c := range cs {
			r.circuits[c.name] = c
		}
		r.jobs = sweep.Matrix(names, lks, betas, []int64{roundSeed(e.seed, i)}, nil)
		rounds = append(rounds, r)
	}
	// Warm-up: a one-job sweep outside the timed rounds.
	warm, err := loadCircuits([]string{"s1423"})
	if err != nil {
		return nil, err
	}
	rep, err := sweep.Run(ctx, sweep.Matrix([]string{"s1423"}, []int{16}, []int{50}, []int64{e.seed}, nil), sweep.Config{
		Workers: e.workers,
		Load:    func(name string) (*netlist.Circuit, error) { return netlist.ParseBenchString(name, warm[0].text) },
	})
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return rounds, nil
}

func runSweepTables(ctx context.Context, e *env, state any) error {
	rounds := state.([]sweepRound)
	var savings []float64
	var groupMS, assignMS, trees float64
	var hits, misses int64
	var compute, wall time.Duration
	jobs := 0
	times, err := timedRounds(e, len(rounds), func(i int) error {
		r := rounds[i]
		top := e.tr.begin(0, 0, "sweep", "sweep.Run")
		cfg := sweep.Config{
			Workers:     e.workers,
			KeepResults: true,
			Load: func(name string) (*netlist.Circuit, error) {
				ct, ok := r.circuits[name]
				if !ok {
					return nil, fmt.Errorf("no generated circuit %q", name)
				}
				id := e.tr.begin(top, 0, "netlist", "netlist.ParseBenchString")
				c, err := netlist.ParseBenchString(name, ct.text)
				e.tr.finish(id)
				return c, err
			},
		}
		rep, err := sweep.Run(ctx, r.jobs, cfg)
		e.tr.finish(top)
		if err != nil {
			return err
		}
		for k := range rep.Jobs {
			jr := &rep.Jobs[k]
			e.attempted++
			if jr.Err != nil {
				e.check(jr.Job.String(), jr.Err)
				continue
			}
			e.check(jr.Job.String(), e.checkPartition(jr.Result.Partition, jr.Job.LK, jr.Result.Retiming, jr.Result.CombGraph))
			jobs++
			groupMS += ms(jr.Phases.Group)
			assignMS += ms(jr.Phases.Assign)
			if jr.Phases.Saturate > 0 {
				trees += float64(jr.Kernels.FlowTrees)
			}
			if i == 0 {
				savings = append(savings, jr.Areas.Saving())
			}
		}
		e.traceSweep(rep)
		hits += rep.Cache.Saturated.Hits
		misses += rep.Cache.Saturated.Misses
		compute += rep.Stats.Compute
		wall += rep.Stats.Wall
		if i == 0 {
			sweepCounts(rep, e.layer)
			var b bytes.Buffer
			if err := rep.WriteText(&b, sweep.RenderOptions{}); err != nil {
				return err
			}
			e.digest.add(b.Bytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if e.trace {
		e.tracedPartition(groupMS, assignMS, trees)
		if hits+misses > 0 {
			e.layer["sweep.saturated_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		if wall > 0 {
			e.layer["sweep.busy_ratio"] = float64(compute) / (float64(wall) * float64(e.workers))
		}
		return nil
	}
	timedWall := totalWall(times)
	e.e2e["op_cpu_ms"] = cpuPerOp(times, len(rounds[0].jobs))
	e.e2e["quality_pct"] = mean(savings)
	e.addDetail("jobs_per_s", float64(jobs)/timedWall.Seconds(), "jobs/s", fmt.Sprintf("%d sweep jobs in %d matrices, per second of wall time", jobs, len(times)))
	e.addDetail("saving_pct", e.e2e["quality_pct"], "pct-points", "mean ratio_nonretimed - ratio_retimed over round 0")
	return nil
}

// traceSweep adds one sweep's job times to the layers when tracing. The
// pool's jobs run inside sweep.Run, out of the benchmark's reach, and
// sweep.Run times each job's phases: those are the layers' self time, the
// rest of a job's elapsed time is core's (stage glue, and waiting on an
// artifact another worker is computing), and the jobs' elapsed time per
// worker is taken off the sweep.Run span's own.
func (e *env) traceSweep(rep *sweep.Report) {
	var elapsed time.Duration
	for k := range rep.Jobs {
		jr := &rep.Jobs[k]
		ph := jr.Phases
		e.tr.add("graph", ph.Graph+ph.SCC)
		e.tr.add("flow", ph.Saturate)
		e.tr.add("partition", ph.Group+ph.Assign)
		e.tr.add("retime", ph.Retime)
		e.tr.add("core", jr.Elapsed-(ph.Graph+ph.SCC+ph.Saturate+ph.Group+ph.Assign+ph.Retime))
		elapsed += jr.Elapsed
	}
	e.tr.add("sweep", -elapsed/time.Duration(e.workers))
}

// sweepCounts adds one sweep's work counters into m. Flow trees count each
// saturation once, not once per job that reused it.
func sweepCounts(rep *sweep.Report, m map[string]float64) {
	for k := range rep.Jobs {
		jr := &rep.Jobs[k]
		if jr.Err != nil {
			continue
		}
		if jr.Phases.Saturate > 0 {
			m["flow.trees"] += float64(jr.Kernels.FlowTrees)
		}
		m["partition.dfs_visits"] += float64(jr.Kernels.PartitionDFSVisits)
		m["partition.resplits"] += float64(jr.Kernels.PartitionResplits)
		m["partition.cut_nets"] += float64(jr.Areas.CutNets)
		m["retime.relaxations"] += float64(jr.Kernels.SPFARelaxations)
	}
}
