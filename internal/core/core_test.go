package core

import (
	"context"
	"testing"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

func s27(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench89.S27()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileS27(t *testing.T) {
	r, err := Compile(context.Background(), s27(t), DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Partition.MaxInputs() > 3 {
		t.Fatalf("max inputs %d > lk", r.Partition.MaxInputs())
	}
	// The paper's Figure 7 example finds 4 partitions at l_k=3; the
	// stochastic flow gives 3-5 depending on seed — assert the ballpark.
	if n := len(r.Partition.Clusters); n < 2 || n > 6 {
		t.Fatalf("clusters = %d, expected 2..6", n)
	}
	if r.Areas.CutNets == 0 {
		t.Fatal("no cut nets on s27 at lk=3")
	}
	if r.Areas.DFFs != 3 || r.Areas.DFFsOnSCC != 3 {
		t.Fatalf("DFF accounting: %+v", r.Areas)
	}
	if r.Retiming == nil {
		t.Fatal("solver did not run")
	}
	if got := len(r.Retiming.Covered) + len(r.Retiming.Demoted); got != r.Areas.CutNets {
		t.Fatalf("solver covered+demoted = %d, cuts = %d", got, r.Areas.CutNets)
	}
}

func TestRetimedAlwaysCheaper(t *testing.T) {
	for _, name := range []string{"s510", "s420.1", "s641", "s820"} {
		c, err := bench89.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Compile(context.Background(), c, DefaultOptions(16, 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Areas.CBITAreaRetimed > r.Areas.CBITAreaNonRetimed {
			t.Errorf("%s: retimed CBIT area %.0f > non-retimed %.0f",
				name, r.Areas.CBITAreaRetimed, r.Areas.CBITAreaNonRetimed)
		}
		if r.Areas.CutNets > 0 && r.Areas.Saving() <= 0 {
			t.Errorf("%s: no saving (%.1f)", name, r.Areas.Saving())
		}
	}
}

func TestLargerLKCutsFewerNets(t *testing.T) {
	// Table 11 vs Table 10: a wider input constraint accommodates more
	// nets and reduces the cut count.
	c, err := bench89.Load("s641")
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Compile(context.Background(), c, DefaultOptions(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	r24, err := Compile(context.Background(), c, DefaultOptions(24, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r24.Areas.CutNets > r16.Areas.CutNets {
		t.Fatalf("lk=24 cut %d nets, lk=16 cut %d", r24.Areas.CutNets, r16.Areas.CutNets)
	}
}

func TestNoCutsWhenLKExceedsInputs(t *testing.T) {
	// Table 12's zero entries: circuits whose input count is below l_k
	// need no internal cuts.
	r, err := Compile(context.Background(), s27(t), DefaultOptions(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Areas.CutNets != 0 {
		t.Fatalf("s27 at lk=16 cut %d nets, want 0", r.Areas.CutNets)
	}
	if r.Areas.RatioRetimed != 0 || r.Areas.RatioNonRetimed != 0 {
		t.Fatalf("ratios nonzero: %+v", r.Areas)
	}
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(context.Background(), nil, DefaultOptions(16, 1)); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := Compile(context.Background(), s27(t), Options{LK: 0}); err == nil {
		t.Fatal("LK=0 accepted")
	}
}

func TestSolverAccountingConsistent(t *testing.T) {
	r, err := Compile(context.Background(), s27(t), DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Areas.CoveredCuts != len(r.Retiming.Covered) || r.Areas.ExcessCuts != len(r.Retiming.Demoted) {
		t.Fatalf("area report disagrees with solver: %+v vs %d/%d",
			r.Areas, len(r.Retiming.Covered), len(r.Retiming.Demoted))
	}
	want := float64(r.Areas.CoveredCuts)*9 + float64(r.Areas.ExcessCuts)*23
	if r.Areas.CBITAreaRetimed != want {
		t.Fatalf("retimed CBIT area %.1f, want %.1f", r.Areas.CBITAreaRetimed, want)
	}
	if r.Areas.CBITAreaNonRetimed != float64(r.Areas.CutNets)*23 {
		t.Fatalf("non-retimed CBIT area %.1f", r.Areas.CBITAreaNonRetimed)
	}
}

func TestMaxSolveNodesSkipsSolver(t *testing.T) {
	opt := DefaultOptions(3, 1)
	opt.SolveRetiming = false
	r, err := Compile(context.Background(), s27(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Retiming != nil {
		t.Fatal("solver ran despite SolveRetiming = false")
	}
	// Fallback accounting must still fill the report.
	if r.Areas.CoveredCuts+r.Areas.ExcessCuts != r.Areas.CutNets {
		t.Fatalf("fallback accounting inconsistent: %+v", r.Areas)
	}
}

func TestDeterministicCompile(t *testing.T) {
	a, err := Compile(context.Background(), s27(t), DefaultOptions(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(context.Background(), s27(t), DefaultOptions(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Areas.CutNets != b.Areas.CutNets || len(a.Partition.Clusters) != len(b.Partition.Clusters) {
		t.Fatal("compilation not deterministic for fixed seed")
	}
}

func TestPhasesPopulated(t *testing.T) {
	r, err := Compile(context.Background(), s27(t), DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
	total := r.Phases.Graph + r.Phases.SCC + r.Phases.Saturate + r.Phases.Group + r.Phases.Assign + r.Phases.Retime
	if total <= 0 || total > r.Elapsed*2 {
		t.Fatalf("phase timings odd: %+v vs %v", r.Phases, r.Elapsed)
	}
}

func TestEndToEndSmallSuite(t *testing.T) {
	for _, sp := range bench89.SmallSpecs(1300) {
		c, err := bench89.Load(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, lk := range []int{16, 24} {
			r, err := Compile(context.Background(), c, DefaultOptions(lk, 1))
			if err != nil {
				t.Fatalf("%s lk=%d: %v", sp.Name, lk, err)
			}
			if err := r.Partition.Validate(); err != nil {
				t.Fatalf("%s lk=%d: %v", sp.Name, lk, err)
			}
			if r.Partition.MaxInputs() > lk {
				t.Errorf("%s lk=%d: max inputs %d", sp.Name, lk, r.Partition.MaxInputs())
			}
		}
	}
}
