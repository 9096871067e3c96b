package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/fault"
)

var coverCampaign = workload{
	name: "cover-campaign",
	why: "fault.Campaign at 2 workers over s1423 at l_k=17 (escalation-heavy) and s5378 at l_k=16 " +
		"(many small triage-bound batches), where fault simulation does nearly all the work.",
	setup: setupCoverCampaign,
	run:   runCoverCampaign,
}

// coverCampaignNominalRound is the wall time of one cover-campaign round
// (one s1423 and one s5378 campaign) on a 2-vCPU Xeon. s1423 runs at
// l_k=17, not 18: at 18 its two escalation batches take about 4 s each,
// and a run would hold too few rounds for a steady median.
const coverCampaignNominalRound = 1.2

// coverSeed is the compile seed of the campaign targets (the CLI's
// default). The partition sets a campaign's cost, which varies widely
// across compile seeds, so the targets stay fixed and the workload seed
// drives the campaigns' LFSR seeds.
const coverSeed = 1

type coverState struct {
	targets []*compiled
	rounds  int
}

func setupCoverCampaign(ctx context.Context, e *env) (any, error) {
	type target struct {
		name string
		lk   int
	}
	targets, nominal := []target{{"s1423", 17}, {"s5378", 16}}, coverCampaignNominalRound
	if e.tiny {
		targets, nominal = []target{{"s510", 16}}, 0.05
	}
	st := &coverState{rounds: e.rounds(nominal)}
	for _, t := range targets {
		cs, err := loadCircuits([]string{t.name})
		if err != nil {
			return nil, err
		}
		ct := cs[0]
		ct.seed = coverSeed
		out, err := compileStaged(ctx, e, 0, ct, t.lk)
		if err == nil {
			err = e.checkPartition(out.pt.Partition(), t.lk, out.pr.Retiming(), out.pr.CombGraph())
		}
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", t.name, err)
		}
		st.targets = append(st.targets, out)
	}
	return st, nil
}

func runCoverCampaign(ctx context.Context, e *env, state any) error {
	st := state.(*coverState)
	var faults, total, detected int
	var batches, escalations, survivors, triageDetected, simulated int
	times, err := timedRounds(e, st.rounds, func(i int) error {
		for _, t := range st.targets {
			c := t.pt.Saturated().Circuit()
			id := e.tr.begin(0, 0, "fault", "fault.Campaign "+c.Name)
			rep, err := fault.Campaign(ctx, c, t.pt.Partition(), fault.CampaignOptions{
				Seed: roundSeed(e.seed, i), Workers: e.workers, Collapse: true,
			})
			e.tr.finish(id)
			e.attempted++
			if err != nil {
				e.check("campaign "+c.Name, err)
				continue
			}
			e.check("campaign "+c.Name, e.checkCampaign(rep))
			faults += rep.Total
			if i == 0 {
				total += rep.Total
				detected += rep.Detected
				batches += rep.Batches
				escalations += rep.Batches - rep.TriageBatches
				survivors += rep.Survivors
				triageDetected += rep.TriageDetected
				simulated += rep.Simulated
				var b bytes.Buffer
				if err := rep.WriteJSON(&b, fault.RenderOptions{}); err != nil {
					return err
				}
				e.digest.add(b.Bytes())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if e.trace {
		m := e.layer
		m["fault.batches"] = float64(batches)
		m["fault.escalation_batches"] = float64(escalations)
		m["fault.survivors"] = float64(survivors)
		if simulated > 0 {
			m["fault.triage_ratio"] = float64(triageDetected) / float64(simulated)
		}
		if batches > 0 {
			m["sim.faults_per_batch"] = float64(simulated+survivors) / float64(batches)
		}
		return nil
	}
	wall := totalWall(times)
	e.e2e["op_cpu_ms"] = cpuPerOp(times, len(st.targets))
	e.e2e["quality_pct"] = 100 * float64(detected) / float64(max(total, 1))
	e.addDetail("faults_per_s", float64(faults)/wall.Seconds(), "faults/s", fmt.Sprintf("%d uncollapsed faults brought to a verdict, per second of wall time", faults))
	e.addDetail("coverage_pct", e.e2e["quality_pct"], "%", fmt.Sprintf("%d of %d stuck-at faults detected in round 0", detected, total))
	return nil
}

// checkCampaign checks one campaign's totals; under e.corrupt it checks a
// tampered copy.
func (e *env) checkCampaign(rep *fault.CampaignReport) error {
	total, detected := rep.Total, rep.Detected
	if e.corrupt {
		detected = total + 1
	}
	if total <= 0 || detected < 0 || detected > total {
		return fmt.Errorf("campaign detected %d of %d faults", detected, total)
	}
	return nil
}
