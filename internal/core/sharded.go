package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/audit"
	"repro/internal/costmodel"
	"repro/internal/ff"
	"repro/internal/gadgets"
	"repro/internal/layers"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/zkerrors"
)

// Chunked proving (DESIGN.md §16): the model graph is partitioned at layer
// boundaries into chunks (model.Partition), each chunk is compiled through
// the optimizer as its own circuit, and the chunk-boundary activations are
// exposed as committed public values on both sides of every cut. Chunks
// prove in parallel; the verifier checks every per-chunk proof plus
// boundary instance-segment equality along every wire, which binds the
// chain end to end. A plain model is the one-chunk partition: its only
// chunk is the model graph itself, so this is the pipeline for every model.

// ShardedPlan is the optimizer's chosen layout for a model: one Plan per
// chunk plus the boundary wiring that links them.
type ShardedPlan struct {
	Graph       *model.Graph
	Sample      *model.Input
	Part        *model.Partitioning
	Chunks      []*Plan
	Backend     pcs.Backend
	Calibration *costmodel.Calibration
	// Cost is the estimated total proving seconds across all chunks plus
	// boundary-commitment overhead (costmodel.EstimateShardedTime); Size
	// is the estimated total proof bytes including the re-committed
	// boundary values.
	Cost float64
	Size int
	// Candidates lists, per chunk, every layout the optimizer priced, and
	// Stats sums the chunks' optimizer work (Table 12). Both are empty on
	// a plan loaded from an artifact.
	Candidates [][]Candidate
	Stats      Stats
}

// ShardedKeys holds one key pair per chunk.
type ShardedKeys struct {
	Chunks []*Keys
}

// ShardedProof is one proof per chunk. The boundary activations appear in
// two chunks' instance columns (producer and consumer); Verify checks them
// for equality.
type ShardedProof struct {
	Chunks []*Proof
}

// errShardMalformed wraps zkerrors.ErrMalformedProof with context.
func errShardMalformed(format string, args ...any) error {
	return fmt.Errorf("core: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedProof)
}

// errShardVerify wraps zkerrors.ErrVerifyFailed with context.
func errShardVerify(format string, args ...any) error {
	return fmt.Errorf("core: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrVerifyFailed)
}

// OptimizeSharded partitions the graph into `shards` chunks and runs
// Algorithm 1 independently on each chunk, so every chunk gets its own
// optimal grid. Chunk layouts are input-independent, but witness
// synthesis is not: each chunk's sample input needs the previous chunks'
// boundary activations, so chunks are compiled in chain order.
func OptimizeSharded(g *model.Graph, sample *model.Input, shards int, opt Options) (*ShardedPlan, error) {
	if opt.Calibration == nil {
		return nil, fmt.Errorf("core: options require a calibration")
	}
	part, err := model.Partition(g, sample, shards)
	if err != nil {
		return nil, err
	}
	sp := &ShardedPlan{
		Graph: g, Sample: sample, Part: part,
		Backend: opt.Backend, Calibration: opt.Calibration,
	}
	boundary := map[string][]int64{}
	layouts := make([]costmodel.Layout, 0, shards)
	for c := range part.Chunks {
		cg := part.Chunks[c].Graph
		cin, err := part.ChunkInput(c, sample, boundary)
		if err != nil {
			return nil, err
		}
		plan, cands, stats, err := Optimize(cg, cin, opt)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", c, err)
		}
		sp.Chunks = append(sp.Chunks, plan)
		sp.Candidates = append(sp.Candidates, cands)
		sp.Stats.Evaluated += stats.Evaluated
		sp.Stats.Pruned += stats.Pruned
		sp.Stats.Duration += stats.Duration
		layouts = append(layouts, plan.Layout)
		// One extra synthesis to read the chunk's boundary activations
		// for the next chunk's sample input (cheap, no keys involved).
		if c < len(part.Chunks)-1 {
			_, outs, err := cg.BuildCircuit(plan.Config, cin)
			if err != nil {
				return nil, fmt.Errorf("core: chunk %d: %w", c, err)
			}
			recordBoundary(cg, outs, boundary)
		}
	}
	sp.Cost = opt.Calibration.EstimateShardedTime(layouts, part.BoundaryElems)
	sp.Size = costmodel.EstimateShardedSize(layouts, part.BoundaryElems)
	return sp, nil
}

// recordBoundary stores a synthesized chunk's published output values in
// the boundary map, keyed by tensor name, for the chunks after it.
func recordBoundary(cg *model.Graph, outs []*layers.T, boundary map[string][]int64) {
	for i, name := range cg.Outputs {
		boundary[name] = layers.Values(outs[i]).Data
	}
}

// Setup generates per-chunk proving and verification keys.
func (sp *ShardedPlan) Setup() (*ShardedKeys, error) {
	keys := &ShardedKeys{Chunks: make([]*Keys, len(sp.Chunks))}
	for c, plan := range sp.Chunks {
		k, err := plan.Setup()
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d keygen: %w", c, err)
		}
		keys.Chunks[c] = k
	}
	return keys, nil
}

// synthChunks synthesizes every chunk's circuit and witness for an input.
// Synthesis is inherently sequential — chunk c's boundary activations are
// chunk c-1's computed outputs — but it is cheap next to proving.
func (sp *ShardedPlan) synthChunks(in *model.Input) ([]*gadgets.Artifact, error) {
	boundary := map[string][]int64{}
	arts := make([]*gadgets.Artifact, len(sp.Chunks))
	for c, plan := range sp.Chunks {
		cin, err := sp.Part.ChunkInput(c, in, boundary)
		if err != nil {
			return nil, err
		}
		b, outs, err := plan.Graph.BuildCircuit(plan.Config, cin)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", c, err)
		}
		art, err := b.Finalize(plan.N)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", c, err)
		}
		arts[c] = art
		recordBoundary(plan.Graph, outs, boundary)
	}
	return arts, nil
}

// Prove synthesizes all chunk witnesses (sequential — the chain feeds
// forward) and then proves the chunks in parallel via the process-wide
// worker pool. Chunk proofs are byte-identical at any worker count, so the
// chained proof is too. A non-nil trace records the per-stage report of a
// one-chunk prove; stage tracing is per circuit, so a trace over more
// chunks is refused.
func (sp *ShardedPlan) Prove(keys *ShardedKeys, in *model.Input, trace *obs.Trace) (*ShardedProof, error) {
	if keys == nil || len(keys.Chunks) != len(sp.Chunks) {
		return nil, fmt.Errorf("core: sharded keys carry %d chunks, plan has %d", keyCount(keys), len(sp.Chunks))
	}
	for c, k := range keys.Chunks {
		if k == nil || k.PK == nil {
			return nil, fmt.Errorf("core: chunk %d keys carry no proving key (verify-only system)", c)
		}
	}
	if trace != nil && len(sp.Chunks) > 1 {
		return nil, fmt.Errorf("core: tracing is not supported with %d chunks (stage tracing is per-circuit)", len(sp.Chunks))
	}
	arts, err := sp.synthChunks(in)
	if err != nil {
		return nil, err
	}
	// Blinding: each chunk gets an independent SHA-256 counter stream whose
	// seed is derived here, sequentially, on this goroutine. With the default
	// crypto/rand source the streams are cryptographically random; with a
	// deterministic source installed via ff.SetRandomSource the whole
	// derivation is replayable, and because no chunk ever touches the shared
	// source from a worker goroutine, proof bytes do not depend on the
	// parallel schedule.
	rngs := make([]*blindStream, len(arts))
	for c := range arts {
		rngs[c] = newBlindStream(c)
	}
	type res struct {
		proof *Proof
		err   error
	}
	results := parallel.Map(len(arts), func(c int) res {
		art := arts[c]
		proof, err := plonkish.ProveWithRand(keys.Chunks[c].PK, art.Instance, art.Witness, rngs[c], trace)
		if err != nil {
			return res{err: fmt.Errorf("core: chunk %d: %w", c, err)}
		}
		return res{proof: &Proof{Proof: proof, Instance: art.Instance}}
	})
	out := &ShardedProof{Chunks: make([]*Proof, len(results))}
	for c, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out.Chunks[c] = r.proof
	}
	return out, nil
}

// blindStream expands a 32-byte seed into an unbounded byte stream via
// SHA-256 in counter mode. It is the per-chunk blinding source handed to
// plonkish.ProveWithRand; each chunk owns its stream exclusively, so the
// reader needs no locking.
type blindStream struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func (b *blindStream) Read(p []byte) (int, error) {
	for len(b.buf) < len(p) {
		h := sha256.New()
		h.Write(b.seed[:])
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], b.ctr)
		h.Write(n[:])
		b.ctr++
		b.buf = h.Sum(b.buf)
	}
	n := copy(p, b.buf)
	b.buf = b.buf[n:]
	return n, nil
}

// newBlindStream derives chunk c's blinding seed from two draws on the
// process randomness source plus the chunk index. Must be called on the
// proving goroutine, in chunk order, before any parallel work starts.
func newBlindStream(c int) *blindStream {
	h := sha256.New()
	h.Write([]byte("zkml-shard-blind"))
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(c))
	h.Write(idx[:])
	for i := 0; i < 2; i++ {
		e := ff.Random()
		eb := e.Bytes()
		h.Write(eb[:])
	}
	s := &blindStream{}
	h.Sum(s.seed[:0])
	return s
}

func keyCount(keys *ShardedKeys) int {
	if keys == nil {
		return 0
	}
	return len(keys.Chunks)
}

// Verify checks the proof chain: every chunk proof against its own
// verification key, the declared instance shapes, and boundary
// instance-segment equality along every wire. Structural failures wrap
// ErrMalformedProof; a well-formed chain whose boundary activations
// disagree (a tampered or swapped chunk) wraps ErrVerifyFailed.
func (sp *ShardedPlan) Verify(keys *ShardedKeys, proof *ShardedProof) error {
	if keys == nil || len(keys.Chunks) != len(sp.Chunks) {
		return fmt.Errorf("core: sharded keys carry %d chunks, plan has %d", keyCount(keys), len(sp.Chunks))
	}
	if proof == nil || len(proof.Chunks) != len(sp.Chunks) {
		return errShardMalformed("sharded proof carries %d chunks, plan has %d", proofCount(proof), len(sp.Chunks))
	}
	for c, pf := range proof.Chunks {
		if pf == nil || pf.Proof == nil {
			return errShardMalformed("chunk %d proof missing", c)
		}
		if len(pf.Instance) != 1 || len(pf.Instance[0]) != sp.Part.Chunks[c].InstanceLen {
			return errShardMalformed("chunk %d instance shape mismatch (want 1 column of %d values)",
				c, sp.Part.Chunks[c].InstanceLen)
		}
		if err := plonkish.Verify(keys.Chunks[c].VK, pf.Instance, pf.Proof); err != nil {
			return fmt.Errorf("core: chunk %d: %w", c, err)
		}
	}
	for _, w := range sp.Part.Wires {
		from := proof.Chunks[w.From].Instance[0][w.FromOff : w.FromOff+w.Elems]
		to := proof.Chunks[w.To].Instance[0][w.ToOff : w.ToOff+w.Elems]
		for i := range from {
			if !from[i].Equal(&to[i]) {
				return errShardVerify("boundary activation %q element %d differs between chunk %d and chunk %d",
					w.Tensor, i, w.From, w.To)
			}
		}
	}
	return nil
}

func proofCount(p *ShardedProof) int {
	if p == nil {
		return 0
	}
	return len(p.Chunks)
}

// Audit runs the static circuit auditor over every chunk, returning one
// report per chunk (in chain order). keys, when present, pin each chunk's
// degree bound to its actual proving key.
func (sp *ShardedPlan) Audit(keys *ShardedKeys) ([]*audit.Report, error) {
	reports := make([]*audit.Report, len(sp.Chunks))
	for c, plan := range sp.Chunks {
		var k *Keys
		if keys != nil && c < len(keys.Chunks) {
			k = keys.Chunks[c]
		}
		rep, err := plan.Audit(k, nil)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", c, err)
		}
		reports[c] = rep
	}
	return reports, nil
}

// FinalOutputs gathers the full-graph output values from a sharded proof's
// instance columns, flattened in g.Outputs order. Returns nil when the
// proof does not carry the expected instance shapes (call Verify first to
// get a typed error).
func (sp *ShardedPlan) FinalOutputs(proof *ShardedProof) []ff.Element {
	if proof == nil || len(proof.Chunks) != len(sp.Chunks) {
		return nil
	}
	var out []ff.Element
	for _, f := range sp.Part.Finals {
		pf := proof.Chunks[f.Chunk]
		if pf == nil || len(pf.Instance) != 1 || len(pf.Instance[0]) < f.Offset+f.Elems {
			return nil
		}
		out = append(out, pf.Instance[0][f.Offset:f.Offset+f.Elems]...)
	}
	return out
}
