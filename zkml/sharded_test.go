package zkml

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/ff"
)

// TestOutputsZeroInstance: Outputs on a nil proof or a proof with no
// instance columns must return nil, not panic (the pre-fix code indexed
// p.Instance[0] unconditionally).
func TestOutputsZeroInstance(t *testing.T) {
	s, _ := tinySystem(t)
	if got := s.Outputs(nil); got != nil {
		t.Fatalf("Outputs(nil) = %v, want nil", got)
	}
	if got := s.Outputs(&Proof{}); got != nil {
		t.Fatalf("Outputs(no instance) = %v, want nil", got)
	}
}

// TestImportProofNonCanonicalScalar: a 32-byte instance value that is not
// the canonical reduced encoding (>= the field modulus) must be rejected
// as malformed, not silently reduced — a reduced alias would verify under
// a different public claim than the bytes on the wire.
func TestImportProofNonCanonicalScalar(t *testing.T) {
	spec, _ := Model("dlrm-micro")
	sys, err := Compile(spec.Build(), spec.Input(1), opts())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sys.Prove(spec.Input(3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.ExportProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 1-byte chunk count and 4-byte chunk length, then the chunk's
	// 1-byte column count and per column a 4-byte length and the 32-byte
	// scalars. The first scalar starts at offset 10.
	var modBytes [32]byte
	ff.Modulus().FillBytes(modBytes[:])
	for _, bad := range [][32]byte{
		modBytes,
		{0: 0xFF, 31: 0xFF}, // way above the modulus
	} {
		mut := append([]byte(nil), data...)
		copy(mut[10:42], bad[:])
		_, err := sys.ImportProof(mut)
		if !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("non-canonical scalar: want ErrMalformedProof, got %v", err)
		}
	}
	// The canonical encoding still round-trips.
	if _, err := sys.ImportProof(data); err != nil {
		t.Fatal(err)
	}
}

// TestExportMutationSweepInstancePrefix extends the plonkish proof-body
// mutation sweep to the zkml transport framing: flipping any byte of the
// instance prefix (and the first stretch of the proof body behind it)
// must yield a decode error or a failed verification, never an accept or
// a panic. The proof body's own tail is covered by the plonkish sweep.
func TestExportMutationSweepInstancePrefix(t *testing.T) {
	spec, _ := Model("dlrm-micro")
	sys, err := Compile(spec.Build(), spec.Input(1), opts())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sys.Prove(spec.Input(3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.ExportProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	prefix := 1 + 4 + 1 // chunk count, chunk length, column count
	for _, col := range proof.Instance {
		prefix += 4 + 32*len(col)
	}
	end := prefix + 64
	if end > len(data) {
		end = len(data)
	}
	check := func(off int) (accepted bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("byte %d: panic: %v", off, r)
			}
		}()
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		p, err := sys.ImportProof(mut)
		if err != nil {
			return false
		}
		return sys.Verify(p) == nil
	}
	for off := 0; off < end; off++ {
		if check(off) {
			t.Errorf("mutant at byte %d of %d was ACCEPTED", off, len(data))
		}
	}
	t.Logf("all %d instance-prefix mutants rejected (prefix %d bytes)", end, prefix)
}

// shardedSys compiles one sharded mnist system shared by the sharded
// API tests below.
func shardedSys(t *testing.T) *ShardedSystem {
	t.Helper()
	spec, _ := Model("mnist")
	o := opts()
	o.ScaleBits, o.LookupBits, o.MaxCols = 5, 9, 16
	sys, err := CompileSharded(spec.Build(), spec.Input(1), 2, o)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Shards() != 2 {
		t.Fatalf("got %d shards, want 2", sys.Shards())
	}
	return sys
}

func TestCompileShardedProveVerify(t *testing.T) {
	spec, _ := Model("mnist")
	sys := shardedSys(t)
	proof, err := sys.Prove(spec.Input(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Verify(proof); err != nil {
		t.Fatal(err)
	}
	outs := sys.Outputs(proof)
	if len(outs) == 0 {
		t.Fatal("no public outputs")
	}
	g := spec.Build()
	ref, err := g.OutputsFloat(spec.Input(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(outs[0]-ref[0].Data[0]) > 0.2 {
		t.Fatalf("sharded output %.4f far from reference %.4f", outs[0], ref[0].Data[0])
	}
	if !strings.Contains(sys.Describe(), "mnist") {
		t.Fatal("describe missing model name")
	}
	if len(sys.ModelCommitment()) != 32 {
		t.Fatal("model commitment not 32 bytes")
	}

	t.Run("export-import-round-trip", func(t *testing.T) {
		data, err := sys.ExportProof(proof)
		if err != nil {
			t.Fatal(err)
		}
		back, err := sys.ImportProof(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Verify(back); err != nil {
			t.Fatalf("imported sharded proof rejected: %v", err)
		}
		// Truncation, trailing garbage, and a wrong chunk count are all
		// malformed transport, not verification failures.
		for name, mut := range map[string][]byte{
			"truncated":   data[:len(data)/2],
			"trailing":    append(append([]byte(nil), data...), 0x00),
			"wrong-count": append([]byte{1}, data[1:]...),
			"empty":       {},
		} {
			if _, err := sys.ImportProof(mut); !errors.Is(err, ErrMalformedProof) {
				t.Fatalf("%s import: want ErrMalformedProof, got %v", name, err)
			}
		}
	})

	t.Run("store-round-trip", func(t *testing.T) {
		dir := t.TempDir()
		o := opts()
		o.ScaleBits, o.LookupBits, o.MaxCols = 5, 9, 16
		path, err := sys.Save(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(path, "-s2-") {
			t.Fatalf("sharded artifact path %q missing shard tag", path)
		}
		g := spec.Build()
		loaded, err := LoadShardedSystem(dir, g, spec.Input(1), 2, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Verify(proof); err != nil {
			t.Fatalf("loaded system rejects original proof: %v", err)
		}
		p2, err := loaded.Prove(spec.Input(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Verify(p2); err != nil {
			t.Fatalf("original system rejects loaded system's proof: %v", err)
		}
		if !bytes.Equal(loaded.ModelCommitment(), sys.ModelCommitment()) {
			t.Fatal("model commitment changed across the store round trip")
		}
		ver, err := LoadShardedVerifier(dir, g, spec.Input(1), 2, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := ver.Verify(proof); err != nil {
			t.Fatalf("verifier-only system rejects proof: %v", err)
		}
		if _, err := ver.Prove(spec.Input(5)); err == nil {
			t.Fatal("verifier-only system proved")
		}
		// A different shard count misses the store and errors.
		if _, err := LoadShardedSystem(dir, g, spec.Input(1), 3, o); err == nil {
			t.Fatal("3-shard load served a 2-shard artifact")
		}
	})
}
