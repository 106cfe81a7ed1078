package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/costmodel"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/zkerrors"
)

// Artifact file format (DESIGN.md §13): a compiled plan plus everything
// expensive about its keys, persisted so cold start is a deserialize
// instead of an optimizer sweep + keygen + SRS extension. One container
// serves every chunk count (a plain model is one chunk):
//
//	magic "ZKMLART\x02", then
//	meta:     full-model hash (32 B) + options fingerprint (32 B)
//	backend:  1 B
//	chunks:   chunk count (u32), then per chunk a u32 length and a section:
//	            chunk-graph hash (32 B)
//	            gadget config, K/N/UsedRows, estimated cost/size
//	            the verifying-key digest the reconstructed keys must match
//	            u32 length + plonkish.KeyMaterial (fixed/sigma polys + commitments)
//	srs:      u32 length + pcs.ExportSRS at the largest chunk's size
//
// One SRS section serves every chunk: the KZG powers and IPA basis are
// prefixes of one another and the comb windows do not depend on size. The
// graph, sample input and partitioning are NOT stored — the loader
// re-partitions and re-synthesizes from the model it already has, each
// chunk-graph hash pins the chunk's position and the shard count (chunk
// names embed "#index/shards"), and the digest check rejects material that
// does not match. Artifact bytes are untrusted: every length prefix is
// capped by the bytes remaining, nested sections go through their own
// hardened decoders, encodings are canonical, and all structural failures
// wrap zkerrors.ErrMalformedArtifact.

var artifactMagic = [8]byte{'Z', 'K', 'M', 'L', 'A', 'R', 'T', 2}

// maxConfigStr caps decoded gadget-strategy string lengths.
const maxConfigStr = 64

// maxArtifactChunks caps the decoded chunk count. Partition enforces
// shards <= node count anyway; this bound just keeps hostile bytes from
// requesting absurd slice sizes.
const maxArtifactChunks = 4096

// errArtifact returns a context-wrapped zkerrors.ErrMalformedArtifact.
func errArtifact(format string, args ...any) error {
	return fmt.Errorf("core: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedArtifact)
}

// ModelHash returns a digest binding a model specification: the SHA-256 of
// its canonical JSON encoding (encoding/json sorts map keys, so the bytes
// are deterministic per graph).
func ModelHash(g *model.Graph) ([32]byte, error) {
	b, err := json.Marshal(g)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// ArtifactMeta keys an artifact: which model and which compilation options
// it was built for.
type ArtifactMeta struct {
	ModelHash [32]byte
	Options   [32]byte
}

// ArtifactFile is a decoded artifact, ready to be instantiated against a
// model graph.
type ArtifactFile struct {
	Meta    ArtifactMeta
	Backend pcs.Backend
	Chunks  []*ChunkArtifact
	SRS     []byte
}

// ChunkArtifact is one chunk's stored plan and key material.
type ChunkArtifact struct {
	GraphHash [32]byte
	Config    gadgets.Config
	K         int
	N         int
	UsedRows  int
	Cost      float64
	Size      int
	VKDigest  [32]byte
	Material  *plonkish.KeyMaterial
}

// EncodeArtifact serializes a compiled plan and its keys.
func EncodeArtifact(meta ArtifactMeta, sp *ShardedPlan, keys *ShardedKeys) ([]byte, error) {
	if sp == nil || len(sp.Chunks) == 0 {
		return nil, fmt.Errorf("core: encoding an artifact requires a compiled plan")
	}
	if keys == nil || len(keys.Chunks) != len(sp.Chunks) {
		return nil, fmt.Errorf("core: keys carry %d chunks, plan has %d", keyCount(keys), len(sp.Chunks))
	}
	af := &ArtifactFile{Meta: meta, Backend: sp.Backend}
	maxN := 0
	for c, p := range sp.Chunks {
		k := keys.Chunks[c]
		if k == nil || k.PK == nil || k.VK == nil {
			return nil, fmt.Errorf("core: encoding an artifact requires full keys")
		}
		h, err := ModelHash(p.Graph)
		if err != nil {
			return nil, err
		}
		digest := k.VK.Digest()
		if len(digest) != 32 {
			return nil, fmt.Errorf("core: unexpected VK digest length %d", len(digest))
		}
		ca := &ChunkArtifact{GraphHash: h, Config: p.Config, K: p.K, N: p.N,
			UsedRows: p.UsedRows, Cost: p.Cost, Size: p.Size, Material: k.PK.Material()}
		copy(ca.VKDigest[:], digest)
		af.Chunks = append(af.Chunks, ca)
		maxN = max(maxN, p.N)
	}
	srs, err := pcs.ExportSRS(sp.Backend, maxN)
	if err != nil {
		return nil, err
	}
	af.SRS = srs
	return af.MarshalBinary()
}

// MarshalBinary serializes the artifact; DecodeArtifact is its inverse.
func (af *ArtifactFile) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(artifactMagic[:])
	buf.Write(af.Meta.ModelHash[:])
	buf.Write(af.Meta.Options[:])
	buf.WriteByte(byte(af.Backend))
	writeU32(&buf, len(af.Chunks))
	for c, ca := range af.Chunks {
		section, err := ca.marshal()
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", c, err)
		}
		writeU32(&buf, len(section))
		buf.Write(section)
	}
	writeU32(&buf, len(af.SRS))
	buf.Write(af.SRS)
	return buf.Bytes(), nil
}

func writeU32(buf *bytes.Buffer, v int) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	buf.Write(b[:])
}

// marshal serializes one chunk section.
func (ca *ChunkArtifact) marshal() ([]byte, error) {
	material, err := ca.Material.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(ca.GraphHash[:])
	cfg := ca.Config
	for _, s := range []string{string(cfg.Dot), string(cfg.Arith), string(cfg.ReLU), string(cfg.Rows)} {
		if len(s) > maxConfigStr {
			return nil, fmt.Errorf("core: config string %q too long", s)
		}
		buf.WriteByte(byte(len(s)))
		buf.WriteString(s)
	}
	for _, v := range []int{cfg.NumCols, cfg.FP.ScaleBits, cfg.FP.LookupBits} {
		writeU32(&buf, v)
	}
	for _, b := range []bool{cfg.UseConstDot, cfg.MultiAdd, cfg.MultiMax, cfg.MultiDot} {
		if b {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	for _, v := range []int{ca.K, ca.N, ca.UsedRows} {
		writeU32(&buf, v)
	}
	var costBits [8]byte
	binary.BigEndian.PutUint64(costBits[:], math.Float64bits(ca.Cost))
	buf.Write(costBits[:])
	writeU32(&buf, ca.Size)
	buf.Write(ca.VKDigest[:])
	writeU32(&buf, len(material))
	buf.Write(material)
	return buf.Bytes(), nil
}

// artifactReader decodes untrusted artifact bytes in place, without
// copying them; every failure wraps zkerrors.ErrMalformedArtifact.
type artifactReader struct{ b []byte }

// next returns the next n bytes, refusing counts beyond the bytes remaining.
func (r *artifactReader) next(n int, what string) ([]byte, error) {
	if n > len(r.b) {
		return nil, errArtifact("%s claims %d bytes with %d left", what, n, len(r.b))
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *artifactReader) fixed(dst []byte, what string) error {
	b, err := r.next(len(dst), what)
	copy(dst, b)
	return err
}

func (r *artifactReader) u32(what string) (int, error) {
	b, err := r.next(4, what)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint32(b)), nil
}

// section reads a u32 length prefix and that many bytes.
func (r *artifactReader) section(what string) ([]byte, error) {
	l, err := r.u32(what + " length")
	if err != nil {
		return nil, err
	}
	return r.next(l, what)
}

func (r *artifactReader) str() (string, error) {
	l, err := r.next(1, "config string length")
	if err != nil {
		return "", err
	}
	if int(l[0]) > maxConfigStr {
		return "", errArtifact("config string length %d out of range", l[0])
	}
	b, err := r.next(int(l[0]), "config string")
	return string(b), err
}

func (r *artifactReader) boolean() (bool, error) {
	b, err := r.next(1, "boolean")
	if err != nil || b[0] > 1 {
		return false, errArtifact("bad boolean encoding")
	}
	return b[0] == 1, nil
}

// DecodeArtifact parses artifact bytes. The input is untrusted; failures
// wrap zkerrors.ErrMalformedArtifact and arbitrary bytes never panic or
// over-allocate. The nested key material is fully decoded (and its points
// and scalars validated); the SRS section is kept as raw bytes, a slice of
// data, for pcs.ImportSRS at instantiation time.
func DecodeArtifact(data []byte) (*ArtifactFile, error) {
	r := &artifactReader{data}
	var magic [8]byte
	if err := r.fixed(magic[:], "magic"); err != nil || magic != artifactMagic {
		return nil, errArtifact("bad artifact magic")
	}
	af := &ArtifactFile{}
	if err := r.fixed(af.Meta.ModelHash[:], "model hash"); err != nil {
		return nil, err
	}
	if err := r.fixed(af.Meta.Options[:], "options fingerprint"); err != nil {
		return nil, err
	}
	bb, err := r.next(1, "backend")
	if err != nil {
		return nil, err
	}
	af.Backend = pcs.Backend(bb[0])
	if af.Backend != pcs.KZG && af.Backend != pcs.IPA {
		return nil, errArtifact("unknown backend %d", bb[0])
	}
	n, err := r.u32("chunk count")
	if err != nil {
		return nil, err
	}
	if n < 1 || n > maxArtifactChunks {
		return nil, errArtifact("chunk count %d out of range", n)
	}
	for c := 0; c < n; c++ {
		section, err := r.section(fmt.Sprintf("chunk %d", c))
		if err != nil {
			return nil, err
		}
		ca, err := decodeChunk(section)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", c, err)
		}
		af.Chunks = append(af.Chunks, ca)
	}
	if af.SRS, err = r.section("srs"); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, errArtifact("%d trailing artifact bytes", len(r.b))
	}
	return af, nil
}

// decodeChunk parses one chunk section, which must be consumed exactly.
func decodeChunk(data []byte) (*ChunkArtifact, error) {
	r := &artifactReader{data}
	ca := &ChunkArtifact{}
	if err := r.fixed(ca.GraphHash[:], "chunk-graph hash"); err != nil {
		return nil, err
	}
	var cfg gadgets.Config
	var strs [4]string
	for i := range strs {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		strs[i] = s
	}
	cfg.Dot = gadgets.DotStrategy(strs[0])
	cfg.Arith = gadgets.ArithStrategy(strs[1])
	cfg.ReLU = gadgets.ReLUStrategy(strs[2])
	cfg.Rows = gadgets.RowMode(strs[3])
	var err error
	for _, dst := range []*int{&cfg.NumCols, &cfg.FP.ScaleBits, &cfg.FP.LookupBits} {
		if *dst, err = r.u32("config"); err != nil {
			return nil, err
		}
	}
	for _, dst := range []*bool{&cfg.UseConstDot, &cfg.MultiAdd, &cfg.MultiMax, &cfg.MultiDot} {
		if *dst, err = r.boolean(); err != nil {
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, errArtifact("stored config invalid: %v", err)
	}
	ca.Config = cfg
	for _, dst := range []*int{&ca.K, &ca.N, &ca.UsedRows} {
		if *dst, err = r.u32("grid size"); err != nil {
			return nil, err
		}
	}
	if ca.K < 1 || ca.K > 40 || ca.N != 1<<uint(ca.K) {
		return nil, errArtifact("inconsistent grid size K=%d N=%d", ca.K, ca.N)
	}
	var costBits [8]byte
	if err := r.fixed(costBits[:], "cost"); err != nil {
		return nil, err
	}
	ca.Cost = math.Float64frombits(binary.BigEndian.Uint64(costBits[:]))
	if math.IsNaN(ca.Cost) || math.IsInf(ca.Cost, 0) || ca.Cost < 0 {
		return nil, errArtifact("invalid stored cost")
	}
	if ca.Size, err = r.u32("size"); err != nil {
		return nil, err
	}
	if err := r.fixed(ca.VKDigest[:], "VK digest"); err != nil {
		return nil, err
	}
	materialBytes, err := r.section("key-material")
	if err != nil {
		return nil, err
	}
	ca.Material = &plonkish.KeyMaterial{}
	if err := ca.Material.UnmarshalBinary(materialBytes); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, errArtifact("%d trailing chunk bytes", len(r.b))
	}
	return ca, nil
}

// Instantiate rebuilds a full proving system from the artifact: the model
// is re-partitioned, each chunk's circuit and fixed values are
// re-synthesized (cheap), the SRS is imported once, and the keys are
// assembled from the stored material — no optimizer sweep, no keygen IFFTs
// or MSMs, no SRS extension.
func (af *ArtifactFile) Instantiate(g *model.Graph, sample *model.Input) (*ShardedPlan, *ShardedKeys, error) {
	return af.instantiate(g, sample, false)
}

// InstantiateVerifier rebuilds a verification-only system: same
// re-synthesis, but the keys carry only the verifying side (Keys.PK is nil)
// and the path performs no interpolation or MSM work at all.
func (af *ArtifactFile) InstantiateVerifier(g *model.Graph, sample *model.Input) (*ShardedPlan, *ShardedKeys, error) {
	return af.instantiate(g, sample, true)
}

// instantiate rebuilds the plan and keys. Chunks are instantiated in chain
// order because each chunk's sample input needs the previous chunks'
// boundary activations, which the re-synthesis itself yields.
func (af *ArtifactFile) instantiate(g *model.Graph, sample *model.Input, verifyOnly bool) (*ShardedPlan, *ShardedKeys, error) {
	part, err := model.Partition(g, sample, len(af.Chunks))
	if err != nil {
		return nil, nil, err
	}
	backend, _, err := pcs.ImportSRS(af.SRS)
	if err != nil {
		return nil, nil, err
	}
	if backend != af.Backend {
		return nil, nil, errArtifact("SRS backend %v does not match artifact backend %v", backend, af.Backend)
	}
	sp := &ShardedPlan{Graph: g, Sample: sample, Part: part, Backend: af.Backend}
	keys := &ShardedKeys{Chunks: make([]*Keys, len(af.Chunks))}
	boundary := map[string][]int64{}
	layouts := make([]costmodel.Layout, len(af.Chunks))
	for c, ca := range af.Chunks {
		cg := part.Chunks[c].Graph
		h, err := ModelHash(cg)
		if err != nil {
			return nil, nil, err
		}
		if ca.GraphHash != h {
			return nil, nil, errArtifact("chunk %d was built for a different chunk graph", c)
		}
		cin, err := part.ChunkInput(c, sample, boundary)
		if err != nil {
			return nil, nil, err
		}
		b, outs, err := cg.BuildCircuit(ca.Config, cin)
		if err != nil {
			return nil, nil, errArtifact("chunk %d config does not build against %s: %v", c, cg.Name, err)
		}
		art, err := b.Finalize(ca.N)
		if err != nil {
			return nil, nil, errArtifact("chunk %d grid 2^%d does not fit %s: %v", c, ca.K, cg.Name, err)
		}
		k := &Keys{}
		if verifyOnly {
			k.VK, err = plonkish.SetupVK(art.CS, ca.N, af.Backend, ca.Material)
		} else {
			k.PK, k.VK, err = plonkish.SetupFromMaterial(art.CS, ca.N, art.Fixed, af.Backend, ca.Material)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: chunk %d: %w", c, err)
		}
		if !bytes.Equal(k.VK.Digest(), ca.VKDigest[:]) {
			return nil, nil, errArtifact("chunk %d verifying-key digest mismatch: artifact does not match this model", c)
		}
		layouts[c] = LayoutOf(art.CS, ca.K, af.Backend)
		sp.Chunks = append(sp.Chunks, &Plan{
			Graph:  cg,
			Sample: cin,
			Candidate: Candidate{Config: ca.Config, N: ca.N, K: ca.K, UsedRows: ca.UsedRows,
				Layout: layouts[c], Cost: ca.Cost, Size: ca.Size},
			Backend: af.Backend,
		})
		keys.Chunks[c] = k
		sp.Cost += ca.Cost
		recordBoundary(cg, outs, boundary)
	}
	sp.Size = costmodel.EstimateShardedSize(layouts, part.BoundaryElems)
	return sp, keys, nil
}
