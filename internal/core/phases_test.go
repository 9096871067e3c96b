package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// A traced compilation records exactly one stage span per phase, named
// "<phase> <circuit>", in pipeline order — the same names Phases.Each
// reports after parse.
func TestCompileSpansOnePerPhase(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.With(context.Background(), rec, 0)
	r, err := Compile(ctx, loadBench(t, "s27"), DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Name, Cat string }
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range events {
		if e.Cat == "stage" {
			got = append(got, e.Name)
		}
	}
	want := []string{PhaseParse + " s27"}
	r.Phases.Each(func(name string, d time.Duration) {
		if d <= 0 {
			t.Errorf("phase %s took no time", name)
		}
		want = append(want, name+" s27")
	})
	wantOrder := []string{"parse s27", "graph s27", "scc s27", "saturate s27", "group s27", "assign s27", "retime s27"}
	if !reflect.DeepEqual(want, wantOrder) {
		t.Fatalf("Each order = %v, want %v", want, wantOrder)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stage spans = %v, want %v", got, want)
	}
}
