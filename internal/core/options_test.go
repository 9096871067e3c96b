package core

import (
	"context"
	"testing"
)

func TestCompileBetaClamped(t *testing.T) {
	opt := DefaultOptions(3, 1)
	opt.Beta = 0 // clamped to 1 rather than rejected
	if _, err := Compile(context.Background(), s27(t), opt); err != nil {
		t.Fatalf("beta=0 should clamp: %v", err)
	}
}

func TestCompileTinyLK(t *testing.T) {
	// l_k below the max fanin: Make_Group cannot satisfy the constraint
	// for every cluster; compilation still succeeds and reports the
	// violation through MaxInputs.
	opt := DefaultOptions(1, 1)
	r, err := Compile(context.Background(), s27(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partition.MaxInputs() <= 1 {
		t.Fatal("expected an unsatisfiable constraint to surface")
	}
}
