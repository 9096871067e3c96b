// Command ppetsim runs the PPET self-test session on a partitioned circuit:
// every segment is driven by its TPG CBIT's maximal-length sequence and
// the responses fold into per-segment MISR signatures. For stuck-at fault
// coverage of the same segments, run merced -cover.
//
// Usage:
//
//	ppetsim -circuit s27 -lk 3                     # golden signatures
//	ppetsim -circuit s641 -lk 16 -max-patterns 4096
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/ppet"
)

func main() {
	file := flag.String("file", "", "path to a .bench netlist")
	circuit := flag.String("circuit", "", "built-in benchmark name")
	lk := flag.Int("lk", 16, "input-size constraint l_k")
	seed := flag.Int64("seed", 1, "random seed")
	maxPatterns := flag.Uint64("max-patterns", 0, "cap applied patterns per segment (0: pseudo-exhaustive)")
	flag.Parse()

	c, err := loadCircuit(*file, *circuit)
	if err != nil {
		fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(*lk, *seed))
	if err != nil {
		fatal(err)
	}
	plan, err := ppet.BuildPlan(r.Partition)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ppetsim — %s, l_k=%d, %d segments, testing time 2^%d = %.0f cycles\n",
		c.Name, *lk, len(plan.Segments), plan.MaxWidth, plan.TotalTime)

	sigs, err := ppet.SelfTest(c, r.Partition, ppet.SelfTestOptions{Seed: *seed, MaxCycles: *maxPatterns})
	if err != nil {
		fatal(err)
	}
	for i, s := range sigs {
		sp := plan.Segments[i]
		fmt.Printf("  segment %2d: %2d inputs -> %2d-bit TPG, %2d outputs -> %2d-bit MISR, signature %0*X (%d cycles)\n",
			s.Cluster, sp.Inputs, sp.TPGWidth, sp.Outputs, sp.PSAWidth, (sp.PSAWidth+3)/4, s.Value, s.Cycles)
	}

}

func loadCircuit(file, name string) (*netlist.Circuit, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.ParseBench(file, f)
	case name != "":
		return bench89.Load(name)
	default:
		return nil, fmt.Errorf("one of -file or -circuit is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppetsim:", err)
	os.Exit(1)
}
