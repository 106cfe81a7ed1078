package zkml

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/zkerrors"
)

// ErrMalformedArtifact: persisted key/plan artifact bytes are structurally
// invalid (truncated, corrupted, or built for a different model/options).
var ErrMalformedArtifact = zkerrors.ErrMalformedArtifact

// optionsFingerprint digests every option that changes the compiled circuit
// or its keys. Options that only affect how compilation runs (calibration
// source) are deliberately excluded: two compiles with different
// calibrations may pick different layouts, but a stored artifact pins the
// layout anyway, and reusing it across calibration sources is exactly the
// point of the store.
func optionsFingerprint(o Options) [32]byte {
	o = o.withDefaults()
	s := fmt.Sprintf("zkml-options/v1|backend=%s|objective=%s|scale=%d|lookup=%d|cols=%d..%d",
		o.Backend, o.Objective, o.ScaleBits, o.LookupBits, o.MinCols, o.MaxCols)
	return sha256.Sum256([]byte(s))
}

// sanitizeName maps a model name onto a filesystem-safe slug.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "model"
	}
	return b.String()
}

// ArtifactPath returns the file a compiled system for (model, shards,
// options) is stored at inside dir: <model>-s<shards>-<hash>-<fp>.zka. The
// name embeds the shard count, the model hash and the options fingerprint,
// so different models, option sets or shard counts never collide.
func ArtifactPath(dir string, g *Graph, shards int, o Options) (string, error) {
	h, err := core.ModelHash(g)
	if err != nil {
		return "", err
	}
	fp := optionsFingerprint(o)
	name := fmt.Sprintf("%s-s%d-%x-%x.zka", sanitizeName(g.Name), shards, h[:4], fp[:4])
	return filepath.Join(dir, name), nil
}

// Save persists the compiled system — plan, proving-key material, verifying
// key, and the commitment-scheme SRS — into dir, returning the file path.
// The write is atomic (temp file + rename), so a crash never leaves a
// half-written artifact behind. Load the result with LoadSystem (prove +
// verify) or LoadVerifier (verify only, no proving-key reconstruction).
func (s *System) Save(dir string) (string, error) {
	return s.sys.Save(dir)
}

// Save persists the compiled system into dir, returning the file path. The
// write is atomic. Load the result with LoadShardedSystem or
// LoadShardedVerifier.
func (s *ShardedSystem) Save(dir string) (string, error) {
	h, err := core.ModelHash(s.Plan.Graph)
	if err != nil {
		return "", err
	}
	meta := core.ArtifactMeta{ModelHash: h, Options: optionsFingerprint(s.opts)}
	data, err := core.EncodeArtifact(meta, s.Plan, s.Keys)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path, err := ArtifactPath(dir, s.Plan.Graph, s.Shards(), s.opts)
	if err != nil {
		return "", err
	}
	if err := fsio.WriteFileAtomic(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// load reads the artifact for (model, shards, options) from dir, checks it
// was built for exactly that triple, and instantiates it: the partitioning
// is recomputed from the model, each chunk's circuit is re-synthesized, and
// the stored material supplies the key polynomials and commitments — no
// layout search, no keygen MSMs or IFFTs, no SRS extension. If no matching
// artifact exists the error wraps os.ErrNotExist — callers fall back to
// compiling.
func load(dir string, g *Graph, sample *Input, shards int, o Options, verifyOnly bool) (*ShardedSystem, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	path, err := ArtifactPath(dir, g, shards, o)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("zkml: no stored artifact for model %q with these options: %w", g.Name, err)
	}
	af, err := core.DecodeArtifact(data)
	if err != nil {
		return nil, err
	}
	h, err := core.ModelHash(g)
	if err != nil {
		return nil, err
	}
	if af.Meta.ModelHash != h {
		return nil, fmt.Errorf("zkml: artifact %s was built for a different model: %w", path, ErrMalformedArtifact)
	}
	if af.Meta.Options != optionsFingerprint(o) {
		return nil, fmt.Errorf("zkml: artifact %s was built with different options: %w", path, ErrMalformedArtifact)
	}
	if len(af.Chunks) != shards {
		return nil, fmt.Errorf("zkml: artifact %s carries %d chunks, want %d: %w", path, len(af.Chunks), shards, ErrMalformedArtifact)
	}
	instantiate := af.Instantiate
	if verifyOnly {
		instantiate = af.InstantiateVerifier
	}
	plan, keys, err := instantiate(g, sample)
	if err != nil {
		return nil, err
	}
	return &ShardedSystem{Plan: plan, Keys: keys, opts: o}, nil
}

// LoadShardedSystem reconstructs a compiled system of shards chunks from
// an artifact saved in dir. The options must match the ones the system was
// compiled with.
func LoadShardedSystem(dir string, g *Graph, sample *Input, shards int, o Options) (*ShardedSystem, error) {
	return load(dir, g, sample, shards, o, false)
}

// LoadShardedVerifier reconstructs a verification-only system from an
// artifact saved in dir: the verifying keys are assembled straight from
// the stored commitments with no interpolation and no MSM work at all.
// The result verifies proofs and exposes the model commitment; Prove
// returns an error.
func LoadShardedVerifier(dir string, g *Graph, sample *Input, shards int, o Options) (*ShardedSystem, error) {
	return load(dir, g, sample, shards, o, true)
}

// LoadSystem is LoadShardedSystem with one chunk.
func LoadSystem(dir string, g *Graph, sample *Input, o Options) (*System, error) {
	return oneChunk(LoadShardedSystem(dir, g, sample, 1, o))
}

// LoadVerifier is LoadShardedVerifier with one chunk.
func LoadVerifier(dir string, g *Graph, sample *Input, o Options) (*System, error) {
	return oneChunk(LoadShardedVerifier(dir, g, sample, 1, o))
}
