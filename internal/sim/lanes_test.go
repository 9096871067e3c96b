package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

// randomProgram builds the same random-DAG program shape as
// TestProgramMatchesReference: every gate type at fanins 1..5 over 8
// source signals.
func randomProgram(rng *rand.Rand, gates int) ([]gateOp, int) {
	const sources = 8
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Mux,
	}
	var order []gateOp
	next := sources
	for i := 0; i < gates; i++ {
		typ := types[rng.Intn(len(types))]
		n := 1 + rng.Intn(5)
		switch typ {
		case netlist.Not, netlist.Buf:
			n = 1
		case netlist.Mux:
			n = 3
		}
		fanin := make([]int, n)
		for j := range fanin {
			fanin[j] = rng.Intn(next)
		}
		order = append(order, gateOp{typ: typ, out: next, fanin: fanin})
		next++
	}
	return order, next
}

// vecTrial runs the wide fault kernel at one width — the unrolled
// specialization and the generic body, which must agree exactly — and
// then checks it plane by plane: element j of every vector word must equal
// an independent one-word evaluation of plane j. Odd trials carry random
// force masks and take evalFaultyVecGeneric[[1]uint64] as the plane
// oracle; even trials run with zero masks and take the fault-free scalar
// prog.eval, itself pinned to refEval.
func vecTrial[W lanevec](t *testing.T, rng *rand.Rand, prog *program, nsig int, trials int) {
	t.Helper()
	var zero W
	words := len(zero)
	for trial := 0; trial < trials; trial++ {
		faulty := trial%2 == 1
		v := make([]W, nsig)
		f0 := make([]W, nsig)
		f1 := make([]W, nsig)
		for i := 0; i < 8; i++ {
			for j := 0; j < words; j++ {
				v[i][j] = rng.Uint64()
			}
		}
		// Sparse random force masks. Overlapping f0/f1 bits are fine for
		// the differential: every kernel resolves the overlap the same
		// way (the stuck-at-1 mask is applied last).
		for i := range f0 {
			if faulty && rng.Intn(4) == 0 {
				f0[i][rng.Intn(words)] = rng.Uint64()
			}
			if faulty && rng.Intn(4) == 0 {
				f1[i][rng.Intn(words)] = rng.Uint64()
			}
		}
		in := append([]W(nil), v...)

		// The dispatching entry point (which hits the unrolled
		// specialization for this width) and the generic body.
		vg := append([]W(nil), v...)
		evalFaultyVec(prog, v, f0, f1)
		evalFaultyVecGeneric(prog, vg, f0, f1)
		for i := 0; i < nsig; i++ {
			if v[i] != vg[i] {
				t.Fatalf("W=%d trial %d: signal %d unrolled %x, generic %x",
					words, trial, i, v[i], vg[i])
			}
		}

		for j := 0; j < words; j++ {
			ref := make([]uint64, nsig)
			if faulty {
				pv := make([][1]uint64, nsig)
				pf0 := make([][1]uint64, nsig)
				pf1 := make([][1]uint64, nsig)
				for i := 0; i < nsig; i++ {
					pv[i][0], pf0[i][0], pf1[i][0] = in[i][j], f0[i][j], f1[i][j]
				}
				evalFaultyVecGeneric(prog, pv, pf0, pf1)
				for i := range ref {
					ref[i] = pv[i][0]
				}
			} else {
				for i := range ref {
					ref[i] = in[i][j]
				}
				prog.eval(ref)
			}
			for i := 0; i < nsig; i++ {
				if v[i][j] != ref[i] {
					t.Fatalf("W=%d trial %d (faulty=%v): signal %d plane %d = %x, one-word oracle %x",
						words, trial, faulty, i, j, v[i][j], ref[i])
				}
			}
		}
	}
}

func TestVecKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	order, nsig := randomProgram(rng, 200)
	prog := compileProgram(order)
	vecTrial[[1]uint64](t, rng, prog, nsig, 20)
	vecTrial[[2]uint64](t, rng, prog, nsig, 20)
	vecTrial[[4]uint64](t, rng, prog, nsig, 20)
	vecTrial[[8]uint64](t, rng, prog, nsig, 20)
}

// All single stuck-at faults of a segment, in deterministic signal order.
func segmentFaults(sg *Segment) []Fault {
	var out []Fault
	for _, name := range sg.names {
		out = append(out, Fault{Signal: name, Stuck1: false}, Fault{Signal: name, Stuck1: true})
	}
	return out
}

// The width-invariance contract behind the campaign's byte-identical
// reports: a fault's verdict after a fixed pattern sequence is the same at
// every vector width and in every lane position.
func TestLaneEngineWidthInvariant(t *testing.T) {
	_, _, sg := segmentFixture(t, s27)
	faults := segmentFaults(sg)
	patterns := make([]uint64, 48)
	rng := rand.New(rand.NewSource(3))
	for i := range patterns {
		patterns[i] = rng.Uint64() & 0xf
	}

	verdict := func(words int, f Fault, lane int) bool {
		e, err := sg.GetLaneEngine(words)
		if err != nil {
			t.Fatal(err)
		}
		defer sg.PutLaneEngine(e)
		if err := e.Inject(f, lane); err != nil {
			t.Fatal(err)
		}
		// Arm the whole lane range so the armed mask covers the lane at
		// every width (faultless armed lanes never diverge, so this does
		// not change the verdict).
		e.Arm(e.Lanes())
		e.ResetState()
		for _, p := range patterns {
			e.Step(p)
		}
		return e.Detected(lane)
	}

	for _, f := range faults {
		want := verdict(1, f, 1)
		for _, words := range []int{2, 4, 8} {
			// First lane, a middle-word lane, and the last lane all must
			// agree with the one-word verdict.
			for _, lane := range []int{1, 64 * words / 2, BatchLanes(words)} {
				if got := verdict(words, f, lane); got != want {
					t.Fatalf("%v: W=%d lane %d verdict %v, W=1 verdict %v", f, words, lane, got, want)
				}
			}
		}
	}
}

// cycleTrial pins the unrolled clock of one width (Step, dispatching to
// cycle1/2/4/8) to cycleGeneric: two engines with the same random faults,
// armed set and random starting state must hold identical state planes
// and detection masks after every clock of a random pattern sequence.
func cycleTrial[W lanevec](t *testing.T, rng *rand.Rand, sg *Segment) {
	t.Helper()
	fast, ref := newLaneEngine[W](sg), newLaneEngine[W](sg)
	for lane := 1; lane <= fast.Lanes(); lane++ {
		if rng.Intn(3) == 0 {
			continue // leave some lanes fault-free
		}
		f := Fault{Signal: sg.names[rng.Intn(len(sg.names))], Stuck1: rng.Intn(2) == 1}
		for _, e := range []*laneEngine[W]{fast, ref} {
			if err := e.Inject(f, lane); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Arm into the last word, so every word's detect and mask path is
	// live, and at a random cut so the armed mask is ragged.
	armed := fast.Lanes() - rng.Intn(64)
	fast.Arm(armed)
	ref.Arm(armed)
	for i := range fast.v {
		for j := 0; j < fast.Words(); j++ {
			fast.v[i][j] = rng.Uint64()
		}
		ref.v[i] = fast.v[i]
	}
	for cycle := 0; cycle < 64; cycle++ {
		p := rng.Uint64()
		all := fast.Step(p)
		ref.cycleGeneric(p, true, 0, nil)
		if all != ref.AllDetected() {
			t.Fatalf("W=%d cycle %d: Step reported all-detected %v, generic %v",
				fast.Words(), cycle, all, ref.AllDetected())
		}
		for i := range fast.v {
			if fast.v[i] != ref.v[i] {
				t.Fatalf("W=%d cycle %d: signal %s unrolled %x, generic %x",
					fast.Words(), cycle, sg.names[i], fast.v[i], ref.v[i])
			}
		}
		if fast.DetectedMask() != ref.DetectedMask() {
			t.Fatalf("W=%d cycle %d: detected mask unrolled %x, generic %x",
				fast.Words(), cycle, fast.DetectedMask(), ref.DetectedMask())
		}
	}
}

func TestCycleUnrolledMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, _, s27seg := segmentFixture(t, s27)
	segs := []*Segment{s27seg}
	for _, name := range []string{"s510", "s1423"} {
		c, err := bench89.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		_, sg := wholeSegment(t, c)
		segs = append(segs, sg)
	}
	for _, sg := range segs {
		for trial := 0; trial < 4; trial++ {
			cycleTrial[[1]uint64](t, rng, sg)
			cycleTrial[[2]uint64](t, rng, sg)
			cycleTrial[[4]uint64](t, rng, sg)
			cycleTrial[[8]uint64](t, rng, sg)
		}
	}
}

func TestBatchLanes(t *testing.T) {
	for _, tc := range []struct{ words, lanes int }{{1, 63}, {2, 127}, {4, 255}, {8, 511}} {
		if got := BatchLanes(tc.words); got != tc.lanes {
			t.Errorf("BatchLanes(%d) = %d, want %d", tc.words, got, tc.lanes)
		}
	}
	if LanesPerWord != BatchLanes(1) {
		t.Errorf("LanesPerWord = %d, want BatchLanes(1) = %d", LanesPerWord, BatchLanes(1))
	}
}

func TestFitLaneWords(t *testing.T) {
	for _, tc := range []struct{ n, max, want int }{
		{1, 8, 1}, {63, 8, 1}, {64, 8, 2}, {127, 8, 2}, {128, 8, 4},
		{255, 8, 4}, {256, 8, 8}, {512, 8, 8}, // over capacity: clamps to max
		{200, 4, 4}, {10, 4, 1}, {70, 2, 2}, {1, 1, 1},
	} {
		if got := FitLaneWords(tc.n, tc.max); got != tc.want {
			t.Errorf("FitLaneWords(%d, %d) = %d, want %d", tc.n, tc.max, got, tc.want)
		}
	}
}

func TestLaneEngineValidation(t *testing.T) {
	_, _, sg := segmentFixture(t, s27)
	if _, err := sg.NewLaneEngine(3); err == nil {
		t.Error("width 3 accepted")
	}
	if _, err := sg.GetLaneEngine(0); err == nil {
		t.Error("width 0 accepted")
	}
	e, err := sg.NewLaneEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Words() != 2 || e.Lanes() != 127 {
		t.Fatalf("Words=%d Lanes=%d", e.Words(), e.Lanes())
	}
	if err := e.Inject(Fault{Signal: "G8"}, 0); err == nil {
		t.Error("lane 0 accepted")
	}
	if err := e.Inject(Fault{Signal: "G8"}, 128); err == nil {
		t.Error("lane 128 accepted on a 127-lane engine")
	}
	if err := e.Inject(Fault{Signal: "nope"}, 1); err == nil {
		t.Error("unknown signal accepted")
	}
}

// Pool recycling must hand back engines with no residue: no stale faults,
// state, or detection bits from the previous user.
func TestLaneEnginePoolHygiene(t *testing.T) {
	_, _, sg := segmentFixture(t, s27)
	e, err := sg.GetLaneEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(Fault{Signal: "G8", Stuck1: true}, 7); err != nil {
		t.Fatal(err)
	}
	e.Arm(7)
	for p := uint64(0); p < 32; p++ {
		e.Step(p)
	}
	if !e.Detected(7) {
		t.Fatal("G8/SA1 undetected — fixture assumption broken")
	}
	sg.PutLaneEngine(e)

	r, err := sg.GetLaneEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	r.Arm(7)
	for p := uint64(0); p < 32; p++ {
		r.Step(p)
	}
	for lane := 1; lane <= 7; lane++ {
		if r.Detected(lane) {
			t.Fatalf("recycled engine detected lane %d with no faults injected", lane)
		}
	}

	// A foreign engine must not enter the pool.
	_, _, other := segmentFixture(t, s27)
	oe, err := other.NewLaneEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	sg.PutLaneEngine(oe) // silently dropped
	sg.PutLaneEngine(nil)
}
