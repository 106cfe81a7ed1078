package zkml

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/obs"
)

// tinyGraph is a two-node model (fc + relu over four inputs) whose circuit
// compiles and keys in milliseconds, so fuzz seeds are built in-process
// instead of living in a corpus file.
func tinyGraph() (*Graph, *Input) {
	g := &Graph{
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

func tinyOptions() Options {
	return Options{Backend: IPA, ScaleBits: 3, LookupBits: 5, MinCols: 6, MaxCols: 8,
		Calibration: costmodel.StaticCalibration()}
}

// tinySystem compiles tinyGraph into one chunk.
func tinySystem(tb testing.TB) (*System, *Input) {
	tb.Helper()
	g, in := tinyGraph()
	sys, err := Compile(g, in, tinyOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return sys, in
}

// TestLoadedSystemComparesEstimate: a system loaded from the store carries
// no calibration (a load runs none), yet a traced prove from it still
// yields the cost-model comparison, resolved from the options the way
// Compile resolves it.
func TestLoadedSystemComparesEstimate(t *testing.T) {
	g, in := tinyGraph()
	o := tinyOptions()
	o.Calibration = nil
	o.CalibrationPath = filepath.Join(t.TempDir(), "calibration.json")
	if err := costmodel.StaticCalibration().Save(o.CalibrationPath); err != nil {
		t.Fatal(err)
	}
	sys, err := Compile(g, in, o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(dir, g, in, o)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Plan.Calibration != nil {
		t.Fatal("loading a system calibrated it")
	}
	_, rep, err := loaded.ProveTraced(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obs.TotalRow(loaded.CompareEstimate(rep)); !ok {
		t.Fatal("loaded system's trace has no cost-model total row")
	}
}

// TestOneChunkProofFormat: a plain model's exported proof is the one proof
// format with a chunk count of 1 — the per-circuit encoding behind a 5-byte
// chain header — and the general system of one chunk reads it.
func TestOneChunkProofFormat(t *testing.T) {
	sys, in := tinySystem(t)
	proof, err := sys.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.ExportProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	body, err := proof.Proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := 5 + 1 + len(body)
	for _, col := range proof.Instance {
		want += 4 + 32*len(col)
	}
	if data[0] != 1 || len(data) != want {
		t.Fatalf("one-chunk proof: count byte %d, %d bytes, want 1 and %d", data[0], len(data), want)
	}
	back, err := sys.sys.ImportProof(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.sys.Verify(back); err != nil {
		t.Fatal(err)
	}
}

// FuzzImportProof feeds arbitrary bytes to the proof-chain decoder at one
// and two chunks: it must never panic, every failure must wrap
// ErrMalformedProof, and anything accepted must be the canonical encoding
// of what it decoded to.
func FuzzImportProof(f *testing.F) {
	sys, in := tinySystem(f)
	proof, err := sys.Prove(in)
	if err != nil {
		f.Fatal(err)
	}
	one, err := sys.ExportProof(proof)
	if err != nil {
		f.Fatal(err)
	}
	g, _ := tinyGraph()
	two, err := CompileSharded(g, in, 2, tinyOptions())
	if err != nil {
		f.Fatal(err)
	}
	chain, err := two.Prove(in)
	if err != nil {
		f.Fatal(err)
	}
	pair, err := two.ExportProof(chain)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(one)
	f.Add(pair)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, chunks := range []int{1, 2} {
			p, err := importProof(data, chunks)
			if err != nil {
				if !errors.Is(err, ErrMalformedProof) {
					t.Fatalf("decode error does not wrap ErrMalformedProof: %v", err)
				}
				continue
			}
			round, err := exportProof(p)
			if err != nil {
				t.Fatalf("accepted proof failed to re-export: %v", err)
			}
			if !bytes.Equal(round, data) {
				t.Fatalf("non-canonical encoding accepted: %d bytes in, %d bytes out", len(data), len(round))
			}
		}
	})
}
