package partition

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/netlist"
)

const s27 = `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

func s27Setup(t *testing.T, seed int64) (*graph.G, *graph.SCCInfo, []float64) {
	t.Helper()
	c, err := netlist.ParseBenchString("s27", s27)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	scc := g.SCC()
	fres, err := flow.Saturate(context.Background(), g, flow.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g, scc, append([]float64(nil), fres.D...)
}

func TestMakeGroupS27(t *testing.T) {
	g, scc, d := s27Setup(t, 1)
	r, err := MakeGroup(g, scc, d, Options{LK: 3, Beta: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.MaxInputs() > 3 {
		t.Fatalf("max inputs %d > lk 3", r.MaxInputs())
	}
	if len(r.Clusters) < 2 {
		t.Fatalf("expected multiple clusters, got %d", len(r.Clusters))
	}
	// Sorted descending by inputs (Table 4 STEP 6).
	for i := 1; i < len(r.Clusters); i++ {
		if r.Clusters[i].Inputs() > r.Clusters[i-1].Inputs() {
			t.Fatal("clusters not sorted by descending inputs")
		}
	}
}

func TestMakeGroupCoversAllCells(t *testing.T) {
	g, scc, d := s27Setup(t, 2)
	r, err := MakeGroup(g, scc, d, Options{LK: 4, Beta: 50})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range r.Clusters {
		total += len(c.Nodes)
	}
	if total != len(g.CellIDs()) {
		t.Fatalf("clusters cover %d of %d cells", total, len(g.CellIDs()))
	}
}

func TestMakeGroupInvalidOptions(t *testing.T) {
	g, scc, d := s27Setup(t, 1)
	if _, err := MakeGroup(g, scc, d, Options{LK: 0, Beta: 1}); err == nil {
		t.Fatal("LK=0 accepted")
	}
	if _, err := MakeGroup(g, scc, d, Options{LK: 3, Beta: 0}); err == nil {
		t.Fatal("Beta=0 accepted")
	}
	if _, err := MakeGroup(g, scc, d[:1], Options{LK: 3, Beta: 1}); err == nil {
		t.Fatal("short distance vector accepted")
	}
}

func TestSCCBudgetRestrictsCuts(t *testing.T) {
	// With Beta=1 the cuts inside each SCC may not exceed f(SCC) during
	// the search; verify the recorded SCC cuts stay near the budget. (The
	// final inter-cluster recount can exceed it slightly when severed nets
	// reconnect through other paths; it must stay below the unconstrained
	// count.)
	g, scc, d1 := s27Setup(t, 1)
	_, _, d2 := s27Setup(t, 1)
	relaxed, err := MakeGroup(g, scc, d1, Options{LK: 2, Beta: 50})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := MakeGroup(g, scc, d2, Options{LK: 2, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.NumCutNetsOnSCC() > relaxed.NumCutNetsOnSCC() {
		t.Fatalf("beta=1 produced more SCC cuts (%d) than beta=50 (%d)",
			tight.NumCutNetsOnSCC(), relaxed.NumCutNetsOnSCC())
	}
}

func TestAssignCBITMergesWithinLK(t *testing.T) {
	g, scc, d := s27Setup(t, 1)
	r, err := MakeGroup(g, scc, d, Options{LK: 3, Beta: 50})
	if err != nil {
		t.Fatal(err)
	}
	before := len(r.Clusters)
	trace, err := AssignCBIT(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.MaxInputs() > 3 {
		t.Fatalf("merge violated lk: %d", r.MaxInputs())
	}
	if len(r.Clusters) > before {
		t.Fatal("merging increased cluster count")
	}
	for _, m := range trace {
		if m.InputsAfter > 3 {
			t.Fatalf("trace records infeasible merge: %+v", m)
		}
		if m.Gain != 3-m.InputsAfter {
			t.Fatalf("gain mismatch: %+v", m)
		}
	}
}

func TestAssignCBITReducesOrKeepsCuts(t *testing.T) {
	g, scc, d := s27Setup(t, 5)
	r, err := MakeGroup(g, scc, d, Options{LK: 4, Beta: 50})
	if err != nil {
		t.Fatal(err)
	}
	cutsBefore := r.NumCutNets()
	if _, err := AssignCBIT(r, 4); err != nil {
		t.Fatal(err)
	}
	if r.NumCutNets() > cutsBefore {
		t.Fatalf("merging increased cut nets: %d -> %d", cutsBefore, r.NumCutNets())
	}
}

func TestAssignCBITInvalid(t *testing.T) {
	g, scc, d := s27Setup(t, 1)
	r, err := MakeGroup(g, scc, d, Options{LK: 3, Beta: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssignCBIT(r, 0); err == nil {
		t.Fatal("lk=0 accepted")
	}
}

// randomCircuit builds a small random acyclic-plus-DFF circuit for
// property testing.
func randomCircuit(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("rand")
	n := 3 + rng.Intn(20)
	var signals []string
	for i := 0; i < 2+rng.Intn(4); i++ {
		name := "in" + string(rune('a'+i))
		_ = c.AddInput(name)
		signals = append(signals, name)
	}
	for i := 0; i < n; i++ {
		name := "g" + string(rune('A'+i%26)) + string(rune('a'+i/26))
		pick := func() string { return signals[rng.Intn(len(signals))] }
		switch rng.Intn(4) {
		case 0:
			_, _ = c.AddGate(name, netlist.Not, pick())
		case 1:
			_, _ = c.AddGate(name, netlist.DFF, pick())
		default:
			a, b := pick(), pick()
			for b == a && len(signals) > 1 {
				b = pick()
			}
			_, _ = c.AddGate(name, netlist.Nand, a, b)
		}
		signals = append(signals, name)
	}
	c.AddOutput(signals[len(signals)-1])
	return c
}

// Property: for any random circuit and seed, MakeGroup+AssignCBIT yields a
// valid partition with iota <= LK whenever LK >= max fanin.
func TestPartitionPropertyValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		g, err := graph.FromCircuit(c)
		if err != nil {
			return false
		}
		scc := g.SCC()
		fres, err := flow.Saturate(context.Background(), g, flow.DefaultConfig(seed))
		if err != nil {
			return false
		}
		lk := MaxFanin(g) + 2
		d := append([]float64(nil), fres.D...)
		r, err := MakeGroup(g, scc, d, Options{LK: lk, Beta: 50})
		if err != nil {
			return false
		}
		if _, err := AssignCBIT(r, lk); err != nil {
			return false
		}
		if err := r.Validate(); err != nil {
			return false
		}
		return r.MaxInputs() <= lk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: cut nets recorded in the result are exactly the nets whose
// source and some cell sink live in different clusters.
func TestCutNetConsistency(t *testing.T) {
	g, scc, d := s27Setup(t, 9)
	r, err := MakeGroup(g, scc, d, Options{LK: 3, Beta: 50})
	if err != nil {
		t.Fatal(err)
	}
	inCut := make(map[int]bool)
	for _, e := range r.CutNets {
		inCut[e] = true
	}
	for e := range g.Nets {
		net := g.Nets[e]
		if !g.IsCell(net.Source) {
			if inCut[e] {
				t.Fatalf("PI net %d recorded as cut", e)
			}
			continue
		}
		crosses := false
		for _, s := range net.Sinks {
			if g.IsCell(s) && r.Assign[s] != r.Assign[net.Source] {
				crosses = true
			}
		}
		if crosses != inCut[e] {
			t.Fatalf("net %d: crosses=%v recorded=%v", e, crosses, inCut[e])
		}
	}
	for _, e := range r.CutNetsOnSCC {
		if c := scc.NetComp[e]; c < 0 || !scc.Nontrivial(c) {
			t.Fatalf("net %d recorded on SCC but is not intra-SCC", e)
		}
	}
}

func TestMaxFanin(t *testing.T) {
	g, _, _ := s27Setup(t, 1)
	if MaxFanin(g) != 2 {
		t.Fatalf("s27 max fanin = %d, want 2", MaxFanin(g))
	}
}
