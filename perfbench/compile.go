package main

import (
	"context"
	"fmt"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/retime"
)

// circuitText is one input circuit in .bench form and the seed that
// drives its compile.
type circuitText struct {
	name string
	text string
	seed int64
}

// loadCircuits renders the named Table 9 circuits. They are the generator's
// fixed per-name instances (bench89.Load): across generator seeds one
// circuit's compile cost varies up to twofold, which would swamp any
// regression bound, so the workload seed varies the flow and campaign
// seeds and the request mix instead.
func loadCircuits(names []string) ([]circuitText, error) {
	out := make([]circuitText, 0, len(names))
	for _, name := range names {
		c, err := bench89.Load(name)
		if err != nil {
			return nil, err
		}
		out = append(out, circuitText{name: name, text: c.BenchString()})
	}
	return out, nil
}

// rounds sizes a fixed-work workload from the run budget.
func (e *env) rounds(nominal float64) int {
	return max(1, int(e.seconds/nominal+0.5))
}

// compiled is the output of one staged compile.
type compiled struct {
	pt *core.Partitioned
	pr *core.Priced
}

// compileStaged runs one cold compile of ct through the staged pipeline,
// with a span around each layer call.
func compileStaged(ctx context.Context, e *env, parent int, ct circuitText, lk int) (*compiled, error) {
	tr := e.tr
	id := tr.begin(parent, 0, "netlist", "netlist.ParseBenchString")
	c, err := netlist.ParseBenchString(ct.name, ct.text)
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, 0, "core", "core.NewParsed")
	p, err := core.NewParsed(c)
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, 0, "graph", "core.Analyze")
	a, err := core.Analyze(ctx, p)
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions(lk, ct.seed)
	id = tr.begin(parent, 0, "flow", "core.SaturateNetwork")
	s, err := core.SaturateNetwork(ctx, a, opt.FlowConfig())
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, 0, "partition", "core.MakePartition")
	pt, err := core.MakePartition(ctx, s, opt)
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, 0, "retime", "core.Price")
	pr, err := core.Price(ctx, pt, opt)
	tr.finish(id)
	if err != nil {
		return nil, err
	}
	return &compiled{pt: pt, pr: pr}, nil
}

// checkPartition checks that the partition is valid under l_k and that a
// solved retiming is legal. Under e.corrupt it checks a tampered copy of
// the partition.
func (e *env) checkPartition(p *partition.Result, lk int, sol *retime.Solution, cg *retime.CombGraph) error {
	if e.corrupt {
		bad := *p
		bad.Assign = append([]int(nil), p.Assign...)
		for v, ci := range bad.Assign {
			if ci >= 0 {
				bad.Assign[v] = ci + 1
				break
			}
		}
		p = &bad
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if m := p.MaxInputs(); m > lk {
		return fmt.Errorf("partition has a cluster with %d inputs > l_k=%d", m, lk)
	}
	if sol == nil || cg == nil {
		return nil
	}
	return cg.CheckLegal(sol.Rho)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
