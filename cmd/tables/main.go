// Command tables regenerates every table and figure of the paper's
// evaluation:
//
//	tables -table 1    CBIT area cost (Table 1)
//	tables -table f4   bit-wise area vs testing time series (Figure 4)
//	tables -table f1b  testing time per CBIT width (Figure 1(b))
//	tables -table 9    circuit statistics (Table 9)
//	tables -table 10   partition results, l_k=16 (Table 10)
//	tables -table 11   partition results, l_k=24 (Table 11)
//	tables -table 12   CBIT area with/without retiming (Table 12)
//	tables -table f8   retiming saving series (Figure 8)
//	tables -table sa   flow partitioner vs simulated-annealing baseline
//	tables -table pet  conventional PET vs PPET session length
//	tables -table stability  cut/saving spread across seeds
//	tables -table all  everything above
//
// Use -circuits to restrict to a comma-separated subset and -seed to vary
// the stochastic flow seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/anneal"
	"repro/internal/bench89"
	"repro/internal/cbit"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/pet"
	"repro/internal/report"
)

func main() {
	circuits := flag.String("circuits", "", "comma-separated circuit subset (default: the paper's list)")
	seed := flag.Int64("seed", 1, "random seed for Saturate_Network")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	var sel []string
	write := func(t *report.Table) {
		if *csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				fatal(err)
			}
		} else if err := t.Write(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	// -table all emits every output in this order.
	outputs := []struct {
		name string
		emit func()
	}{
		{"1", func() { write(table1()) }},
		{"f4", figure4},
		{"f1b", figure1b},
		{"9", func() { write(table9(sel)) }},
		{"10", func() { write(table1011(sel, 16, *seed)) }},
		{"11", func() { write(table1011(sel24(sel), 24, *seed)) }},
		{"12", func() { write(table12(sel, *seed)) }},
		{"f8", func() { figure8(sel, *seed) }},
		{"sa", func() { write(tableSA(*seed)) }},
		{"stability", func() { write(tableStability()) }},
		{"pet", func() { write(tablePET(*seed)) }},
	}
	var names []string
	for _, o := range outputs {
		names = append(names, o.name)
	}
	table := flag.String("table", "all", "which table/figure to regenerate ("+strings.Join(names, ", ")+", all)")
	flag.Parse()

	sel = selectCircuits(*circuits)
	found := false
	for _, o := range outputs {
		if *table == "all" || *table == o.name {
			o.emit()
			found = true
		}
	}
	if !found {
		fatal(fmt.Errorf("unknown -table %q", *table))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}

func selectCircuits(flagVal string) []string {
	if flagVal == "" {
		names := make([]string, len(bench89.Specs))
		for i, s := range bench89.Specs {
			names[i] = s.Name
		}
		return names
	}
	var out []string
	for _, n := range strings.Split(flagVal, ",") {
		n = strings.TrimSpace(n)
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// sel24 restricts to the circuits the paper reports for l_k=24 (Table 11).
func sel24(sel []string) []string {
	paper := map[string]bool{
		"s641": true, "s713": true, "s5378": true, "s9234.1": true,
		"s13207.1": true, "s13207": true, "s15850.1": true,
		"s35932": true, "s38417": true, "s38584.1": true,
	}
	var out []string
	for _, n := range sel {
		if paper[n] {
			out = append(out, n)
		}
	}
	return out
}

func table1() *report.Table {
	t := report.NewTable("Table 1: Area Cost for Various CBIT Sizes",
		"CBIT Type", "CBIT Length", "Area/DFF (p_k)", "p_k/Bit (sigma_k)")
	for _, r := range cbit.Table1() {
		t.AddRowf(r.Type, r.Length, r.AreaDFF, r.PerBit)
	}
	return t
}

func figure4() {
	var x, area, time []float64
	for _, w := range cbit.StandardWidths {
		x = append(x, float64(w))
		area = append(area, cbit.AreaPerBit(w))
		time = append(time, cbit.TestingTime(w))
	}
	fmt.Println("Figure 4: Bit-wise Area vs. Testing Time for Various CBIT Types")
	_ = report.WriteSeries(os.Stdout, "cbit_length", report.Series{Name: "area_per_bit", X: x, Y: area},
		report.Series{Name: "testing_time_cycles", X: x, Y: time})
	fmt.Println()
}

func figure1b() {
	var x, y []float64
	for w := 4; w <= 32; w += 4 {
		x = append(x, float64(w))
		y = append(y, cbit.TestingTime(w))
	}
	fmt.Println("Figure 1(b): Testing time T_CBIT dominated by the widest CBIT in each pipe")
	_ = report.WriteSeries(os.Stdout, "widest_cbit_bits", report.Series{Name: "t_cbit_cycles", X: x, Y: y})
	fmt.Println()
}

func table9(sel []string) *report.Table {
	t := report.NewTable("Table 9: Circuit Information of Selected ISCAS89 Benchmark Circuits (synthetic suite)",
		"Circuit", "PIs", "DFFs", "Gates", "INVs", "Area", "PaperArea")
	for _, name := range sel {
		c := mustLoad(name)
		st := c.Stats()
		paper := 0.0
		if sp, ok := bench89.SpecByName(name); ok {
			paper = sp.Area
		}
		t.AddRowf(name, st.PIs, st.DFFs, st.Gates, st.Inverters, st.Area, paper)
	}
	return t
}

func table1011(sel []string, lk int, seed int64) *report.Table {
	t := report.NewTable(fmt.Sprintf("Table %d: Partition Results for l_k = %d", 10+(lk-16)/8, lk),
		"Circuit", "DFFs", "DFFs on SCC", "cut nets on SCC", "nets cut", "CPU time (s)")
	for _, name := range sel {
		r := compile(name, lk, seed)
		t.AddRowf(name, r.Areas.DFFs, r.Areas.DFFsOnSCC, r.Areas.CutNetsOnSCC,
			r.Areas.CutNets, r.Elapsed.Seconds())
	}
	return t
}

func table12(sel []string, seed int64) *report.Table {
	t := report.NewTable("Table 12: CBIT Area Comparison for l_k = 16 and l_k = 24 (A_CBIT/A_Total %)",
		"Circuit", "lk16 w/ retime", "lk16 w/o", "lk24 w/ retime", "lk24 w/o")
	for _, name := range sel {
		r16 := compile(name, 16, seed)
		r24 := compile(name, 24, seed)
		t.AddRowf(name, r16.Areas.RatioRetimed, r16.Areas.RatioNonRetimed,
			r24.Areas.RatioRetimed, r24.Areas.RatioNonRetimed)
	}
	return t
}

func figure8(sel []string, seed int64) {
	fmt.Println("Figure 8: Comparison between PPET with/without Retiming (saving in percentage points)")
	var x, y16, y24 []float64
	for i, name := range sel {
		r16 := compile(name, 16, seed)
		r24 := compile(name, 24, seed)
		x = append(x, float64(i))
		y16 = append(y16, r16.Areas.Saving())
		y24 = append(y24, r24.Areas.Saving())
		fmt.Printf("# %d = %s\n", i, name)
	}
	_ = report.WriteSeries(os.Stdout, "circuit_index",
		report.Series{Name: "saving_lk16_pct", X: x, Y: y16},
		report.Series{Name: "saving_lk24_pct", X: x, Y: y24})
	fmt.Println()
}

// tableSA compares the flow-based partitioner against the authors' earlier
// simulated-annealing approach (the paper's reference [4]) on the small
// circuits: cut nets under the same l_k=16 constraint.
func tableSA(seed int64) *report.Table {
	t := report.NewTable("Baseline: flow-based partitioning (Merced) vs. simulated annealing (ref [4]), l_k=16",
		"Circuit", "flow cuts", "flow maxIn", "SA cuts", "SA maxIn", "SA violations")
	for _, sp := range bench89.SmallSpecs(1300) {
		r := compile(sp.Name, 16, seed)
		g := r.Graph
		sa, err := anneal.Partition(g, anneal.Options{LK: 16, Seed: seed,
			NumClusters: len(r.Partition.Clusters)})
		if err != nil {
			fatal(err)
		}
		t.AddRowf(sp.Name, r.Areas.CutNets, r.Partition.MaxInputs(),
			sa.CutNets, sa.MaxInputs, sa.Violations)
	}
	return t
}

// tablePET compares conventional pseudo-exhaustive testing (Wu-style
// per-cone sessions, the paper's ref [7]) against PPET: cone statistics
// and session lengths vs. the pipelined 2^l_k bound.
func tablePET(seed int64) *report.Table {
	t := report.NewTable("Conventional PET vs PPET session length, kappa = l_k = 16",
		"Circuit", "cones", "max cone", "infeasible", "PET serial", "PET merged", "PPET (2^16)")
	for _, sp := range bench89.SmallSpecs(2300) {
		r := compile(sp.Name, 16, seed)
		a, err := pet.Analyze(r.Graph, 16)
		if err != nil {
			fatal(err)
		}
		t.AddRowf(sp.Name, len(a.Cones), a.MaxWidth, a.Infeasible,
			a.SerialTime, a.MergedTime, cbit.TestingTime(16))
	}
	return t
}

// tableStability quantifies the stochastic spread of Saturate_Network: the
// same circuit compiled under five seeds, reporting the cut-count range and
// retiming-saving range. The paper publishes single-run numbers; this table
// shows how much the probabilistic flow matters.
func tableStability() *report.Table {
	t := report.NewTable("Stability: cut nets and retiming saving across seeds 1-5, l_k=16",
		"Circuit", "cuts min", "cuts mean", "cuts max", "saving min", "saving mean", "saving max")
	for _, sp := range bench89.SmallSpecs(2300) {
		var cuts []float64
		var savings []float64
		for seed := int64(1); seed <= 5; seed++ {
			r := compile(sp.Name, 16, seed)
			cuts = append(cuts, float64(r.Areas.CutNets))
			savings = append(savings, r.Areas.Saving())
		}
		cMin, cMean, cMax := stats(cuts)
		sMin, sMean, sMax := stats(savings)
		t.AddRowf(sp.Name, cMin, cMean, cMax, sMin, sMean, sMax)
	}
	return t
}

func stats(xs []float64) (min, mean, max float64) {
	min, max = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	mean /= float64(len(xs))
	return min, mean, max
}

func mustLoad(name string) *netlist.Circuit {
	c, err := bench89.Load(name)
	if err != nil {
		fatal(err)
	}
	return c
}

var compileCache = map[string]*core.Result{}

func compile(name string, lk int, seed int64) *core.Result {
	key := fmt.Sprintf("%s/%d/%d", name, lk, seed)
	if r, ok := compileCache[key]; ok {
		return r
	}
	r, err := core.Compile(context.Background(), mustLoad(name), core.DefaultOptions(lk, seed))
	if err != nil {
		fatal(fmt.Errorf("%s lk=%d: %w", name, lk, err))
	}
	compileCache[key] = r
	return r
}
