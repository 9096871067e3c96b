package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// roundTripArtifacts builds the shared-prefix chain for s27, encodes each
// artifact, decodes it against the decoded upstream, and returns both
// chains.
func roundTripArtifacts(t *testing.T) (orig, decoded *Saturated) {
	t.Helper()
	ctx := context.Background()
	p, err := NewParsed(s27(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOptions(3, 1).FlowConfig()
	s, err := SaturateNetwork(ctx, a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pb, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodeParsed(pb)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := DecodeAnalyzed(p2, ab)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeSaturated(a2, sb)
	if err != nil {
		t.Fatal(err)
	}
	return s, s2
}

func TestParsedEncodeRoundTrip(t *testing.T) {
	p, err := NewParsed(s27(t))
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodeParsed(data)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Key() != p.Key() {
		t.Fatalf("decoded key %q != original %q", p2.Key(), p.Key())
	}
	if p2.Circuit().Name != p.Circuit().Name {
		t.Fatalf("decoded name %q != original %q", p2.Circuit().Name, p.Circuit().Name)
	}
	var b1, b2 bytes.Buffer
	if err := p.Circuit().WriteBench(&b1); err != nil {
		t.Fatal(err)
	}
	if err := p2.Circuit().WriteBench(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("decoded circuit's canonical .bench differs from the original")
	}
}

func TestAnalyzedEncodeRoundTrip(t *testing.T) {
	s, s2 := roundTripArtifacts(t)
	a, a2 := s.Analyzed(), s2.Analyzed()
	if a2.Key() != a.Key() {
		t.Fatalf("decoded key %q != original %q", a2.Key(), a.Key())
	}
	if !reflect.DeepEqual(a2.Graph().Nodes, a.Graph().Nodes) {
		t.Fatal("decoded graph nodes differ")
	}
	if !reflect.DeepEqual(a2.Graph().Nets, a.Graph().Nets) {
		t.Fatal("decoded graph nets differ")
	}
	if !reflect.DeepEqual(a2.Graph().Out, a.Graph().Out) || !reflect.DeepEqual(a2.Graph().In, a.Graph().In) {
		t.Fatal("rebuilt incidence lists differ")
	}
	if !reflect.DeepEqual(a2.SCC(), a.SCC()) {
		t.Fatal("decoded SCC analysis differs")
	}
	// The rebuilt name index must resolve every non-PO node, exactly like
	// FromCircuit's.
	for _, n := range a.Graph().Nodes {
		id, ok := a.Graph().NodeByName(n.Name)
		id2, ok2 := a2.Graph().NodeByName(n.Name)
		if ok != ok2 || id != id2 {
			t.Fatalf("name index mismatch for %q: (%d,%v) vs (%d,%v)", n.Name, id, ok, id2, ok2)
		}
	}
	if a2.Phases != (Phases{}) {
		t.Fatal("decoded artifact carries build timings")
	}
}

func TestSaturatedEncodeRoundTrip(t *testing.T) {
	s, s2 := roundTripArtifacts(t)
	if s2.Key() != s.Key() {
		t.Fatalf("decoded key %q != original %q", s2.Key(), s.Key())
	}
	if s2.Config() != s.Config() {
		t.Fatalf("decoded config %+v != original %+v", s2.Config(), s.Config())
	}
	if !reflect.DeepEqual(s2.Flow(), s.Flow()) {
		t.Fatal("decoded saturation state differs (float round-trip must be exact)")
	}
}

// TestDecodedSaturatedCompilesIdentically is the property the disk tier
// rests on: finishing a job from a decoded artifact must match finishing it
// from the originals, bit for bit.
func TestDecodedSaturatedCompilesIdentically(t *testing.T) {
	s, s2 := roundTripArtifacts(t)
	opt := DefaultOptions(3, 1)
	r1, err := CompileFrom(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CompileFrom(context.Background(), s2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Areas != r2.Areas {
		t.Fatalf("areas differ:\n%+v\n%+v", r1.Areas, r2.Areas)
	}
	if !reflect.DeepEqual(r1.Partition.Assign, r2.Partition.Assign) {
		t.Fatal("partition assignments differ")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeParsed([]byte("not json")); err == nil {
		t.Fatal("DecodeParsed accepted garbage")
	}
	p, err := NewParsed(s27(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAnalyzed(p, []byte("{}")); err == nil {
		t.Fatal("DecodeAnalyzed accepted an empty object")
	}
	if _, err := DecodeAnalyzed(nil, nil); err == nil {
		t.Fatal("DecodeAnalyzed accepted a nil parent")
	}
	if _, err := DecodeSaturated(nil, nil); err == nil {
		t.Fatal("DecodeSaturated accepted a nil parent")
	}
}
