package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
)

func TestCompileCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Compile(ctx, s27(t), DefaultOptions(3, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompileDeadlinePropagates(t *testing.T) {
	// An already-expired deadline must surface from whichever phase looks
	// at the context first, wrapping DeadlineExceeded.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Compile(ctx, s27(t), DefaultOptions(3, 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestCompileNilContext(t *testing.T) {
	if _, err := Compile(nil, s27(t), DefaultOptions(3, 1)); err != nil { //lint:ignore SA1012 nil ctx tolerance is part of the contract
		t.Fatalf("nil ctx should behave as Background: %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error, "" for valid
	}{
		{"default", DefaultOptions(16, 1), ""},
		{"zero beta", Options{LK: 3}, ""},
		{"lk zero", Options{LK: 0}, "LK"},
		{"lk negative", Options{LK: -4}, "LK"},
		{"beta negative", Options{LK: 3, Beta: -1}, "Beta"},
	}
	for _, tc := range cases {
		err := tc.opt.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestCompileRejectsInvalidOptions(t *testing.T) {
	if _, err := Compile(context.Background(), s27(t), Options{LK: 3, Beta: -1}); err == nil {
		t.Fatal("negative beta accepted")
	}
}

func TestZeroFlowMeansPaperDefaults(t *testing.T) {
	// Saturate_Network always runs with the paper defaults seeded from
	// Options.Seed.
	if got, want := DefaultOptions(3, 42).FlowConfig(), flow.DefaultConfig(42); got != want {
		t.Fatalf("FlowConfig = %+v, want %+v", got, want)
	}
}
