package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// tinyGraph is a two-node model (fc + relu over four inputs) whose circuit
// compiles and keys in milliseconds, so fuzz seeds are built in-process
// instead of living in a corpus file.
func tinyGraph() (*model.Graph, *model.Input) {
	g := &model.Graph{
		Name:   "tiny",
		Inputs: []model.InputSpec{{Name: "x", Shape: []int{4}, Kind: model.FloatInput}},
		Weights: map[string]model.Weight{
			"w": {Shape: []int{2, 4}, Data: []float64{0.5, -0.25, 0.125, 0.75, -0.5, 0.25, 1, -1}},
			"b": {Shape: []int{2}, Data: []float64{0.1, -0.1}},
		},
		Nodes: []model.Node{
			{Op: "reshape", Inputs: []string{"x"}, Output: "x2", Shape: []int{1, 4}},
			{Op: "fc", Inputs: []string{"x2"}, Output: "h", Weight: "w", Bias: "b"},
			{Op: "relu", Inputs: []string{"h"}, Output: "y"},
		},
		Outputs: []string{"y"},
	}
	in := model.NewInput()
	in.Floats["x"] = []float64{0.5, -1, 0.25, 1}
	return g, in
}

// tinyArtifact compiles tinyGraph into shards chunks on the IPA backend
// (whose SRS section is a small basis, not KZG's comb windows) and encodes
// it.
func tinyArtifact(tb testing.TB, shards int) []byte {
	tb.Helper()
	g, in := tinyGraph()
	opt := DefaultOptions(pcs.IPA, fixedpoint.Params{ScaleBits: 3, LookupBits: 5})
	opt.MinCols, opt.MaxCols = 6, 8
	opt.Calibration = costmodel.StaticCalibration()
	sp, err := OptimizeSharded(g, in, shards, opt)
	if err != nil {
		tb.Fatal(err)
	}
	keys, err := sp.Setup()
	if err != nil {
		tb.Fatal(err)
	}
	h, err := ModelHash(g)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := EncodeArtifact(ArtifactMeta{ModelHash: h}, sp, keys)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestArtifactOneChunkRoundTrip: a plain model's artifact is the one-chunk
// container, and every truncation of it is a typed decode error.
func TestArtifactOneChunkRoundTrip(t *testing.T) {
	data := tinyArtifact(t, 1)
	af, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(af.Chunks) != 1 {
		t.Fatalf("plain model artifact has %d chunks, want 1", len(af.Chunks))
	}
	g, in := tinyGraph()
	if h, _ := ModelHash(g); af.Chunks[0].GraphHash != h {
		t.Fatal("one-chunk artifact's chunk hash is not the model hash")
	}
	sp, keys, err := af.Instantiate(g, in)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sp.Prove(keys, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Verify(keys, proof); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < len(data); l += 97 {
		if _, err := DecodeArtifact(data[:l]); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
			t.Fatalf("truncation to %d bytes: want ErrMalformedArtifact, got %v", l, err)
		}
	}
}

// FuzzDecodeArtifact feeds arbitrary bytes to the artifact decoder: it
// must never panic, every failure must wrap ErrMalformedArtifact, and
// anything accepted must be the canonical encoding of what it decoded to.
func FuzzDecodeArtifact(f *testing.F) {
	f.Add([]byte{})
	f.Add(artifactMagic[:])
	f.Add(tinyArtifact(f, 1))
	f.Add(tinyArtifact(f, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		af, err := DecodeArtifact(data)
		if err != nil {
			if !errors.Is(err, zkerrors.ErrMalformedArtifact) {
				t.Fatalf("decode error does not wrap ErrMalformedArtifact: %v", err)
			}
			return
		}
		round, err := af.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted artifact failed to re-marshal: %v", err)
		}
		if !bytes.Equal(round, data) {
			t.Fatalf("non-canonical encoding accepted: %d bytes in, %d bytes out", len(data), len(round))
		}
	})
}
