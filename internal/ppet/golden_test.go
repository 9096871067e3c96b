package ppet

import (
	"context"
	"testing"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestSelfTestGoldenSignatures pins exact self-test signatures, fault-free
// and under one stuck-at-0 and one stuck-at-1 fault on the first node of
// cluster 0, so any change to the segment simulation kernel that moves a
// single MISR bit shows up here. Only cluster 0 differs between the three
// runs of a circuit: every other segment does not know the fault signal
// and runs fault-free.
func TestSelfTestGoldenSignatures(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		lk      int
		node    string // first node of cluster 0: the fault site
		golden  []Signature
		sa0     uint64 // cluster 0 signature with node stuck at 0
		sa1     uint64 // cluster 0 signature with node stuck at 1
	}{
		{"s27", 3, "G16", []Signature{
			{0, 0x1, 4096}, {1, 0x2, 4096}, {2, 0x3, 4096},
		}, 0x3, 0x2},
		{"s510", 8, "I30", []Signature{
			{0, 0x142, 4096}, {1, 0x4, 4096}, {2, 0x487ce876, 4096}, {3, 0x37, 4096},
			{4, 0x9, 4096}, {5, 0x136548, 4096}, {6, 0xb591, 4096}, {7, 0x76, 4096},
			{8, 0x120, 4096}, {9, 0x65, 4096}, {10, 0x1d0, 4096}, {11, 0x18f, 4096},
			{12, 0x5b7, 4096}, {13, 0x19, 4096}, {14, 0x5, 4096}, {15, 0x9, 4096},
			{16, 0xa7, 4096}, {17, 0x3, 4096}, {18, 0x13, 4096}, {19, 0x0, 4096},
			{20, 0x2, 4096},
		}, 0x1b, 0x1f4},
		{"s641", 16, "I8", []Signature{
			{0, 0x94888e13, 4096}, {1, 0xfa2f43ec, 4096}, {2, 0x48440a64, 4096},
			{3, 0xd3516534, 4096}, {4, 0x1141ba0, 4096}, {5, 0x2e2, 4096},
		}, 0x1f0637c1, 0x5229afd7},
	} {
		c, err := bench89.Load(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Compile(context.Background(), c, core.DefaultOptions(tc.lk, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Graph.Nodes[r.Partition.Clusters[0].Nodes[0]].Name; got != tc.node {
			t.Fatalf("%s@%d: cluster 0 starts at %s, want %s", tc.circuit, tc.lk, got, tc.node)
		}
		for _, run := range []struct {
			fault *sim.Fault
			sig0  uint64
		}{
			{nil, tc.golden[0].Value},
			{&sim.Fault{Signal: tc.node}, tc.sa0},
			{&sim.Fault{Signal: tc.node, Stuck1: true}, tc.sa1},
		} {
			want := append([]Signature(nil), tc.golden...)
			want[0].Value = run.sig0
			got, err := SelfTest(c, r.Partition, SelfTestOptions{Seed: 1, MaxCycles: 4096, Fault: run.fault})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s@%d fault %v: %d signatures, want %d", tc.circuit, tc.lk, run.fault, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s@%d fault %v: signature %d = %+v, want %+v", tc.circuit, tc.lk, run.fault, i, got[i], want[i])
				}
			}
		}
	}
}
