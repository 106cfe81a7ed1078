package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ff"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// shardedFixture compiles, keys, and proves a sharded mnist once; the
// tamper and determinism subtests all share it.
type shardedFixture struct {
	spec  model.Spec
	plan  *ShardedPlan
	keys  *ShardedKeys
	proof *ShardedProof
}

func newShardedFixture(t *testing.T, backend pcs.Backend, shards int) *shardedFixture {
	t.Helper()
	spec, err := model.Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build()
	plan, err := OptimizeSharded(g, spec.Input(1), shards, testOpts(backend))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Chunks) != shards {
		t.Fatalf("got %d chunks, want %d", len(plan.Chunks), shards)
	}
	keys, err := plan.Setup()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plan.Prove(keys, spec.Input(42), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(keys, proof); err != nil {
		t.Fatal(err)
	}
	return &shardedFixture{spec: spec, plan: plan, keys: keys, proof: proof}
}

// cloneProof deep-copies a sharded proof's chunk slice and instance values
// so tamper tests never corrupt the shared fixture. Chunk proof bodies are
// shared (tests only swap or replace them whole).
func cloneProof(p *ShardedProof) *ShardedProof {
	out := &ShardedProof{Chunks: make([]*Proof, len(p.Chunks))}
	for i, pf := range p.Chunks {
		cp := &Proof{Proof: pf.Proof, Instance: make([][]ff.Element, len(pf.Instance))}
		for c, col := range pf.Instance {
			cp.Instance[c] = append([]ff.Element(nil), col...)
		}
		out.Chunks[i] = cp
	}
	return out
}

// ctrReader is a deterministic randomness source (SHA-256 in counter
// mode), mirroring the one in internal/plonkish's determinism tests.
type ctrReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func (c *ctrReader) Read(p []byte) (int, error) {
	for len(c.buf) < len(p) {
		h := sha256.New()
		h.Write(c.seed[:])
		var n [8]byte
		for i := 0; i < 8; i++ {
			n[i] = byte(c.ctr >> (8 * i))
		}
		h.Write(n[:])
		c.ctr++
		c.buf = h.Sum(c.buf)
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

func TestShardedProveVerifyMNIST(t *testing.T) {
	fx := newShardedFixture(t, pcs.KZG, 3)

	t.Run("outputs-match-single-circuit", func(t *testing.T) {
		plan, err := OptimizeSharded(fx.spec.Build(), fx.spec.Input(1), 1, testOpts(pcs.KZG))
		if err != nil {
			t.Fatal(err)
		}
		keys, err := plan.Setup()
		if err != nil {
			t.Fatal(err)
		}
		single, err := plan.Prove(keys, fx.spec.Input(42), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := single.Chunks[0].Instance[0]
		got := fx.plan.FinalOutputs(fx.proof)
		if len(got) != len(want) {
			t.Fatalf("sharded outputs %d values, single-circuit %d", len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(&want[i]) {
				t.Fatalf("output %d differs between sharded and single-circuit proof", i)
			}
		}
	})

	t.Run("deterministic-across-worker-counts", func(t *testing.T) {
		// Per-chunk blinding seeds derive from sequential draws on the
		// process source, so under a fixed source the sharded proof is a
		// pure function of (keys, input) at any worker count.
		seed := func() { ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("sharded-determinism"))}) }
		defer ff.SetRandomSource(nil)
		prev := parallel.Workers()
		defer parallel.SetWorkers(prev)
		parallel.SetWorkers(1)
		seed()
		p1, err := fx.plan.Prove(fx.keys, fx.spec.Input(42), nil)
		if err != nil {
			t.Fatal(err)
		}
		parallel.SetWorkers(4)
		seed()
		p4, err := fx.plan.Prove(fx.keys, fx.spec.Input(42), nil)
		if err != nil {
			t.Fatal(err)
		}
		for c := range p1.Chunks {
			b1, err := p1.Chunks[c].Proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b4, err := p4.Chunks[c].Proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b4) {
				t.Fatalf("chunk %d proof bytes differ between 1 and 4 workers", c)
			}
		}
	})

	t.Run("tampered-boundary-rejected", func(t *testing.T) {
		// Flip one committed boundary element in the consumer chunk's
		// instance column: the chunk proof no longer matches its instance.
		w := fx.plan.Part.Wires[0]
		tampered := cloneProof(fx.proof)
		var one ff.Element
		one.SetUint64(1)
		cell := &tampered.Chunks[w.To].Instance[0][w.ToOff]
		cell.Add(cell, &one)
		err := fx.plan.Verify(fx.keys, tampered)
		if err == nil {
			t.Fatal("tampered boundary accepted")
		}
		if !errors.Is(err, zkerrors.ErrVerifyFailed) {
			t.Fatalf("want ErrVerifyFailed, got %v", err)
		}
	})

	t.Run("spliced-chunk-rejected", func(t *testing.T) {
		// A proof whose chunks each verify but come from different
		// inferences must fail the boundary equality check.
		other, err := fx.plan.Prove(fx.keys, fx.spec.Input(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		spliced := cloneProof(fx.proof)
		spliced.Chunks[0] = other.Chunks[0]
		err = fx.plan.Verify(fx.keys, spliced)
		if err == nil {
			t.Fatal("spliced chunk accepted")
		}
		if !errors.Is(err, zkerrors.ErrVerifyFailed) {
			t.Fatalf("want ErrVerifyFailed, got %v", err)
		}
		if !strings.Contains(err.Error(), "boundary activation") {
			t.Fatalf("splice not caught by the boundary check: %v", err)
		}
	})

	t.Run("swapped-chunks-rejected", func(t *testing.T) {
		swapped := cloneProof(fx.proof)
		swapped.Chunks[0], swapped.Chunks[1] = swapped.Chunks[1], swapped.Chunks[0]
		err := fx.plan.Verify(fx.keys, swapped)
		if err == nil {
			t.Fatal("swapped chunk order accepted")
		}
		if !errors.Is(err, zkerrors.ErrVerifyFailed) && !errors.Is(err, zkerrors.ErrMalformedProof) {
			t.Fatalf("want a typed error, got %v", err)
		}
	})

	t.Run("wrong-chunk-count-malformed", func(t *testing.T) {
		short := &ShardedProof{Chunks: fx.proof.Chunks[:2]}
		err := fx.plan.Verify(fx.keys, short)
		if !errors.Is(err, zkerrors.ErrMalformedProof) {
			t.Fatalf("want ErrMalformedProof, got %v", err)
		}
		if err := fx.plan.Verify(fx.keys, nil); !errors.Is(err, zkerrors.ErrMalformedProof) {
			t.Fatalf("nil proof: want ErrMalformedProof, got %v", err)
		}
	})

	t.Run("trace-refused-over-one-chunk", func(t *testing.T) {
		if _, err := fx.plan.Prove(fx.keys, fx.spec.Input(42), obs.NewTrace()); err == nil {
			t.Fatal("a 3-chunk prove accepted a stage trace")
		}
	})

	t.Run("audit-clean-per-chunk", func(t *testing.T) {
		reports, err := fx.plan.Audit(fx.keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != len(fx.plan.Chunks) {
			t.Fatalf("%d reports for %d chunks", len(reports), len(fx.plan.Chunks))
		}
		for c, rep := range reports {
			if !rep.Clean() {
				t.Fatalf("chunk %d audit not clean: %s", c, rep.Summary())
			}
		}
	})

	t.Run("artifact-round-trip", func(t *testing.T) {
		g := fx.spec.Build()
		h, err := ModelHash(g)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeArtifact(ArtifactMeta{ModelHash: h}, fx.plan, fx.keys)
		if err != nil {
			t.Fatal(err)
		}
		af, err := DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		plan2, keys2, err := af.Instantiate(g, fx.spec.Input(1))
		if err != nil {
			t.Fatal(err)
		}
		// The reloaded system verifies the original proof...
		if err := plan2.Verify(keys2, fx.proof); err != nil {
			t.Fatal(err)
		}
		// ...and under a fixed randomness source proves byte-identically to
		// the in-memory plan.
		seed := func() { ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("sharded-artifact"))}) }
		defer ff.SetRandomSource(nil)
		seed()
		p1, err := fx.plan.Prove(fx.keys, fx.spec.Input(42), nil)
		if err != nil {
			t.Fatal(err)
		}
		seed()
		p2, err := plan2.Prove(keys2, fx.spec.Input(42), nil)
		if err != nil {
			t.Fatal(err)
		}
		for c := range p2.Chunks {
			b1, _ := p1.Chunks[c].Proof.MarshalBinary()
			b2, _ := p2.Chunks[c].Proof.MarshalBinary()
			if !bytes.Equal(b1, b2) {
				t.Fatalf("chunk %d proof differs after artifact round trip", c)
			}
		}
		// The verifier-only instantiation verifies too and carries no PK.
		vplan, vkeys, err := af.InstantiateVerifier(g, fx.spec.Input(1))
		if err != nil {
			t.Fatal(err)
		}
		for c, k := range vkeys.Chunks {
			if k.PK != nil {
				t.Fatalf("verifier chunk %d carries a proving key", c)
			}
		}
		if err := vplan.Verify(vkeys, fx.proof); err != nil {
			t.Fatal(err)
		}
		// Mutating the stored shard count must be caught (the chunk graph
		// hash binds position and shard count).
		bad := append([]byte(nil), data...)
		bad[8+32+32+1+3] ^= 0x01 // low byte of the u32 chunk count
		if _, err := DecodeArtifact(bad); err == nil {
			// A flipped count may still parse if it shrinks the chunk list;
			// instantiation must then fail.
			af2, _ := DecodeArtifact(bad)
			if af2 != nil {
				if _, _, err := af2.Instantiate(g, fx.spec.Input(1)); err == nil {
					t.Fatal("tampered shard count accepted")
				}
			}
		}
	})
}

func TestShardedBothBackends(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		fx := newShardedFixture(t, backend, 2)
		if got := len(fx.plan.FinalOutputs(fx.proof)); got == 0 {
			t.Fatalf("%v: no final outputs", backend)
		}
	}
}

func TestEstimateSharded(t *testing.T) {
	l := costmodel.Layout{K: 10, NumInstance: 1, NumAdvice: 8, NumFixed: 10,
		NumLookups: 4, NumPermCols: 9, DMax: 4, NumConstraints: 20,
		ConstraintOps: 200, Backend: pcs.KZG}
	single := calib.EstimateProvingTime(l)
	sharded := calib.EstimateShardedTime([]costmodel.Layout{l, l}, 100)
	if sharded <= 2*single {
		t.Fatalf("sharded estimate %.6f does not include boundary overhead over %.6f", sharded, 2*single)
	}
	if sz := costmodel.EstimateShardedSize([]costmodel.Layout{l, l}, 100); sz <= 2*l.EstimateProofSize() {
		t.Fatalf("sharded size %d does not include boundary bytes", sz)
	}
}

// TestPlanAtRepinsLayout: PlanAt must re-derive Layout/Cost/Size at the
// pinned K instead of inheriting the optimizer's choice (the pre-fix bug
// left Layout.K at whatever price() last computed).
func TestPlanAtRepinsLayout(t *testing.T) {
	spec, _ := model.Get("dlrm-micro")
	g := spec.Build()
	in := spec.Input(1)
	opt := testOpts(pcs.KZG)
	base, _, _, err := Optimize(g, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Pin one power of two above the optimizer's choice.
	n := base.N * 2
	p, err := PlanAt(g, in, base.Config, n, pcs.KZG, opt.Calibration)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != n || p.Layout.K != p.K {
		t.Fatalf("PlanAt(N=%d): plan K=%d but Layout.K=%d", n, p.K, p.Layout.K)
	}
	if p.Cost <= base.Cost {
		t.Fatalf("doubling rows did not increase the estimate: %.4f <= %.4f", p.Cost, base.Cost)
	}
	if _, err := PlanAt(g, in, base.Config, n-1, pcs.KZG, opt.Calibration); err == nil {
		t.Fatal("non-power-of-two N accepted")
	}
}
