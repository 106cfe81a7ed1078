package zkml

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/plonkish"
)

// Chunked proving (DESIGN.md §16): the model graph is partitioned at layer
// boundaries into chunks, each chunk compiles through the optimizer as its
// own circuit, and the chunk-boundary activations are exposed as committed
// public values on both sides of every cut. Chunks prove in parallel;
// verification checks every per-chunk proof plus boundary equality between
// chunks, which binds the chain end to end. A plain model is the one-chunk
// partition, so ShardedSystem is the system for every shard count.

// ShardedProof is one proof per chunk, verified as a chain.
type ShardedProof = core.ShardedProof

// ShardedSystem is a compiled model: one optimizer-selected circuit and key
// pair per chunk, plus the boundary wiring that links them.
type ShardedSystem struct {
	Plan *core.ShardedPlan
	Keys *core.ShardedKeys
	// opts records the options the system was compiled (or loaded) with, so
	// Save can fingerprint the artifact it writes.
	opts Options
}

// OptimizeSharded partitions the model into shards chunks and runs the
// layout optimizer independently on each chunk, without generating keys.
func OptimizeSharded(g *Graph, sample *Input, shards int, o Options) (*core.ShardedPlan, error) {
	opt, err := coreOptions(o)
	if err != nil {
		return nil, err
	}
	return core.OptimizeSharded(g, sample, shards, opt)
}

// CompileSharded partitions the model into shards chunks, optimizes each
// chunk's circuit layout independently, and generates per-chunk proving and
// verification keys. With shards == 1 the only chunk is the model itself.
func CompileSharded(g *Graph, sample *Input, shards int, o Options) (*ShardedSystem, error) {
	plan, err := OptimizeSharded(g, sample, shards, o)
	if err != nil {
		return nil, err
	}
	keys, err := plan.Setup()
	if err != nil {
		return nil, fmt.Errorf("zkml: keygen: %w", err)
	}
	return &ShardedSystem{Plan: plan, Keys: keys, opts: o}, nil
}

// Shards reports the chunk count.
func (s *ShardedSystem) Shards() int { return len(s.Plan.Chunks) }

// Prove synthesizes all chunk witnesses (sequentially — the chain feeds
// forward) and proves the chunks in parallel. The proof is byte-for-byte
// independent of the worker count.
func (s *ShardedSystem) Prove(in *Input) (*ShardedProof, error) {
	return s.Plan.Prove(s.Keys, in, nil)
}

// ProveTraced is Prove with stage-level observability (DESIGN.md §11). The
// stage breakdown is per circuit, so a system of more than one chunk
// refuses to trace.
func (s *ShardedSystem) ProveTraced(in *Input) (*ShardedProof, *obs.Report, error) {
	trace := obs.NewTrace()
	p, err := s.Plan.Prove(s.Keys, in, trace)
	if err != nil {
		return nil, nil, err
	}
	return p, trace.Report(), nil
}

// CompareEstimate lines a traced one-chunk run's measured stage times up
// against the plan's cost-model predictions (paper §7.4), one row per
// prover stage plus a total. A system loaded from the store carries no
// calibration; it resolves one from its options the way Compile does.
func (s *ShardedSystem) CompareEstimate(r *obs.Report) []obs.StageComparison {
	if len(s.Plan.Chunks) != 1 {
		return nil
	}
	p := *s.Plan.Chunks[0]
	if p.Calibration == nil {
		p.Calibration = s.opts.calibration()
	}
	return p.CompareEstimate(r)
}

// Verify checks every chunk proof and the boundary-activation equality
// along every cut. Structural failures wrap ErrMalformedProof; a chain
// whose boundary activations disagree wraps ErrVerifyFailed.
func (s *ShardedSystem) Verify(p *ShardedProof) error {
	return s.Plan.Verify(s.Keys, p)
}

// Outputs dequantizes the full-model public output values of a proof.
// Returns nil for a proof whose instance shapes do not match the plan
// (Verify reports the typed error).
func (s *ShardedSystem) Outputs(p *ShardedProof) []float64 {
	vals := s.Plan.FinalOutputs(p)
	if vals == nil {
		return nil
	}
	fp := s.Plan.Chunks[0].Config.FP
	out := make([]float64, len(vals))
	for i := range vals {
		out[i] = fp.Dequantize(vals[i].Int64())
	}
	return out
}

// Audit statically analyzes every chunk circuit for soundness and liveness
// defects before any proof is made: unconstrained witness cells, gates and
// lookups whose selectors are never set, malformed copy-constraint wiring,
// lookup inputs whose statically-derivable range exceeds their table, and
// constraint degrees that overflow the quotient domain. Each check is
// pinned to the chunk's actual proving key; one report per chunk.
func (s *ShardedSystem) Audit() ([]*AuditReport, error) {
	return s.Plan.Audit(s.Keys)
}

// AuditSharded compiles a layout (optimizer only — no key generation) and
// audits every chunk circuit. This is the pre-keygen gate: it catches a
// mis-wired layout before the expensive setup and before any proof could
// silently enforce nothing.
func AuditSharded(g *Graph, sample *Input, shards int, o Options) ([]*AuditReport, error) {
	plan, err := OptimizeSharded(g, sample, shards, o)
	if err != nil {
		return nil, err
	}
	return plan.Audit(nil)
}

// ExportProof serializes a proof in the one proof format.
func (s *ShardedSystem) ExportProof(p *ShardedProof) ([]byte, error) {
	return exportProof(p)
}

// ImportProof deserializes a proof produced by ExportProof. The bytes are
// untrusted: every length prefix is bounds-checked, instance scalars must
// be canonical, the chunk count must match the system's, and all
// structural failures wrap ErrMalformedProof.
func (s *ShardedSystem) ImportProof(data []byte) (*ShardedProof, error) {
	return importProof(data, s.Shards())
}

// ModelCommitment digests the per-chunk verifying-key digests in chain
// order, binding every chunk circuit (including committed weights) and
// their order — the public commitment an auditor pins (Figure 2 of the
// paper).
func (s *ShardedSystem) ModelCommitment() []byte {
	h := sha256.New()
	for _, k := range s.Keys.Chunks {
		h.Write(k.VK.Digest())
	}
	return h.Sum(nil)
}

// Describe summarizes the compiled layout, one line per chunk.
func (s *ShardedSystem) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d chunk(s), %d boundary elems, backend=%s, est. %.2fs / %d B",
		s.Plan.Graph.Name, len(s.Plan.Chunks), s.Plan.Part.BoundaryElems, s.Plan.Backend, s.Plan.Cost, s.Plan.Size)
	for c, p := range s.Plan.Chunks {
		fmt.Fprintf(&b, "\n  chunk %d: %d advice cols, 2^%d rows (%d used), dot=%s constdot=%v, est. %.2fs",
			c, p.Config.NumCols, p.K, p.UsedRows, p.Config.Dot, p.Config.UseConstDot, p.Cost)
	}
	return b.String()
}

// The proof format, for every chunk count: a one-byte chunk count, then
// per chunk a 4-byte big-endian length and that chunk's encoding — a
// one-byte instance-column count, each column as a 4-byte big-endian
// length plus 32-byte canonical scalars, then the plonkish proof body.

// scalarModBytes is the field modulus in canonical 32-byte big-endian form;
// any instance encoding that compares >= it is non-canonical (v + r aliases
// of a public value) and gets rejected at the decode boundary.
var scalarModBytes = func() [32]byte {
	var out [32]byte
	ff.Modulus().FillBytes(out[:])
	return out
}()

// exportProof encodes a proof chain. Chunk and instance-column counts are
// carried in one byte each; more than 255 of either is rejected here rather
// than silently truncating the count and corrupting the round trip.
func exportProof(p *ShardedProof) ([]byte, error) {
	if p == nil || len(p.Chunks) == 0 {
		return nil, fmt.Errorf("zkml: nil proof")
	}
	if len(p.Chunks) > 255 {
		return nil, fmt.Errorf("zkml: proof has %d chunks, export format supports at most 255", len(p.Chunks))
	}
	out := []byte{byte(len(p.Chunks))}
	for c, pf := range p.Chunks {
		chunk, err := exportChunk(pf)
		if err != nil {
			return nil, fmt.Errorf("zkml: chunk %d: %w", c, err)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(chunk)))
		out = append(out, chunk...)
	}
	return out, nil
}

// exportChunk encodes one chunk's instance columns and proof body.
func exportChunk(p *Proof) ([]byte, error) {
	if p == nil || p.Proof == nil {
		return nil, fmt.Errorf("zkml: proof missing")
	}
	if len(p.Instance) > 255 {
		return nil, fmt.Errorf("zkml: proof has %d instance columns, export format supports at most 255", len(p.Instance))
	}
	body, err := p.Proof.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := []byte{byte(len(p.Instance))}
	for _, col := range p.Instance {
		out = binary.BigEndian.AppendUint32(out, uint32(len(col)))
		for _, v := range col {
			b := v.Bytes()
			out = append(out, b[:]...)
		}
	}
	return append(out, body...), nil
}

// errProof returns a context-wrapped ErrMalformedProof.
func errProof(format string, args ...any) error {
	return fmt.Errorf("zkml: %s: %w", fmt.Sprintf(format, args...), ErrMalformedProof)
}

// importProof decodes a proof chain of exactly wantChunks chunks. The
// bytes are untrusted: structural failures wrap ErrMalformedProof and
// arbitrary input never panics or over-allocates. Instance scalars must be
// canonical (strictly below the field modulus) — ff.Element.SetBytes
// silently reduces mod r, so without the check a non-canonical encoding
// (v + r) of a public output would decode to the same proof, a
// malleability the canonical boundary rejects everywhere else.
func importProof(data []byte, wantChunks int) (*ShardedProof, error) {
	if len(data) < 1 {
		return nil, errProof("empty proof")
	}
	if n := int(data[0]); n != wantChunks {
		return nil, errProof("proof carries %d chunks, system has %d", n, wantChunks)
	}
	data = data[1:]
	p := &ShardedProof{Chunks: make([]*Proof, wantChunks)}
	for c := range p.Chunks {
		if len(data) < 4 {
			return nil, errProof("truncated chunk %d length", c)
		}
		l := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if l > len(data) {
			return nil, errProof("chunk %d claims %d bytes with %d left", c, l, len(data))
		}
		pf, err := importChunk(data[:l])
		if err != nil {
			return nil, fmt.Errorf("zkml: chunk %d: %w", c, err)
		}
		p.Chunks[c] = pf
		data = data[l:]
	}
	if len(data) != 0 {
		return nil, errProof("%d trailing proof bytes", len(data))
	}
	return p, nil
}

// importChunk decodes one chunk's instance columns and proof body.
func importChunk(data []byte) (*Proof, error) {
	if len(data) < 1 {
		return nil, errProof("empty chunk proof")
	}
	nCols := int(data[0])
	data = data[1:]
	inst := make([][]ff.Element, 0, nCols)
	for c := 0; c < nCols; c++ {
		if len(data) < 4 {
			return nil, errProof("truncated proof header")
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if len(data)/32 < n {
			return nil, errProof("instance column %d claims %d values with %d bytes left", c, n, len(data))
		}
		col := make([]ff.Element, n)
		for i := range col {
			if bytes.Compare(data[:32], scalarModBytes[:]) >= 0 {
				return nil, errProof("instance column %d value %d has a non-canonical scalar encoding", c, i)
			}
			col[i].SetBytes(data[:32])
			data = data[32:]
		}
		inst = append(inst, col)
	}
	p := &Proof{Instance: inst, Proof: new(plonkish.Proof)}
	if err := p.Proof.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return p, nil
}
