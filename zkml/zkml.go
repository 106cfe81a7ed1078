// Package zkml is the public API of ZKML-Go, a reproduction of "ZKML: An
// Optimizing System for ML Inference in Zero-Knowledge Proofs" (EuroSys
// 2024). It compiles ML model specifications into halo2-style Plonkish
// ZK-SNARK circuits, choosing gadget implementations and the circuit layout
// with a hardware-calibrated cost optimizer, and produces proofs under
// either the KZG or the transparent IPA commitment backend.
//
// Typical flow:
//
//	spec, _ := zkml.Model("mnist")
//	sys, _ := zkml.Compile(spec.Build(), spec.Input(1), zkml.Options{})
//	proof, _ := sys.Prove(spec.Input(42))
//	err := sys.Verify(proof)
package zkml

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// Error taxonomy for untrusted input (see DESIGN.md §9). Every error
// returned while decoding or checking attacker-controlled bytes wraps one
// of these sentinels; dispatch with errors.Is.
var (
	// ErrMalformedProof: proof bytes are structurally invalid (truncated,
	// bad lengths, off-curve points, backend-inconsistent openings).
	ErrMalformedProof = zkerrors.ErrMalformedProof
	// ErrMalformedModel: a model specification file is structurally
	// invalid (bad JSON, shape/data mismatches, unknown ops).
	ErrMalformedModel = zkerrors.ErrMalformedModel
	// ErrVerifyFailed: a well-formed proof failed a cryptographic check.
	ErrVerifyFailed = zkerrors.ErrVerifyFailed
	// ErrInvalidOptions: compilation options are inconsistent (for example
	// MinCols > MaxCols, a negative ScaleBits, or LookupBits not exceeding
	// ScaleBits). Returned by Compile/Optimize before any work runs.
	ErrInvalidOptions = zkerrors.ErrInvalidOptions
)

// Backend selects the polynomial commitment scheme.
type Backend = pcs.Backend

// Commitment backends.
const (
	// KZG: small proofs, fast verification, trusted setup.
	KZG = pcs.KZG
	// IPA: transparent setup, larger proofs, linear-time verification.
	IPA = pcs.IPA
)

// Objective selects what the optimizer minimizes.
type Objective = core.Objective

// Optimizer objectives.
const (
	// MinTime minimizes proving time (the default).
	MinTime = core.MinTime
	// MinSize minimizes proof size (for on-chain verification).
	MinSize = core.MinSize
)

// Graph is an ML model specification.
type Graph = model.Graph

// Input is a concrete inference input.
type Input = model.Input

// Options configures compilation.
type Options struct {
	// Backend selects KZG (default) or IPA.
	Backend Backend
	// Objective selects MinTime (default) or MinSize.
	Objective Objective
	// ScaleBits sets the fixed-point scale factor 2^ScaleBits (default 7).
	ScaleBits int
	// LookupBits sets the lookup-table precision (default ScaleBits+5).
	LookupBits int
	// MinCols / MaxCols bound the layout search (defaults 6..32).
	MinCols, MaxCols int
	// CalibrationPath caches the hardware calibration (optional).
	CalibrationPath string
	// Calibration overrides the cost calibration (optional).
	Calibration *costmodel.Calibration
}

func (o Options) withDefaults() Options {
	if o.ScaleBits == 0 {
		o.ScaleBits = 7
	}
	if o.LookupBits == 0 {
		o.LookupBits = o.ScaleBits + 5
	}
	if o.MinCols == 0 {
		o.MinCols = 6
	}
	if o.MaxCols == 0 {
		o.MaxCols = 32
	}
	if o.Objective == "" {
		o.Objective = MinTime
	}
	return o
}

// validate rejects inconsistent options with a clear error up front, before
// any calibration, synthesis, or keygen work runs. All failures wrap
// ErrInvalidOptions. Called on the withDefaults()-resolved options, so zero
// values have already been filled in and only genuinely bad inputs fail.
func (o Options) validate() error {
	o = o.withDefaults()
	bad := func(format string, args ...any) error {
		return fmt.Errorf("zkml: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrInvalidOptions)
	}
	if o.Backend != KZG && o.Backend != IPA {
		return bad("unknown backend %d", int(o.Backend))
	}
	if o.Objective != MinTime && o.Objective != MinSize {
		return bad("unknown objective %q", string(o.Objective))
	}
	if o.ScaleBits < 1 || o.ScaleBits > 24 {
		return bad("ScaleBits %d out of range [1,24]", o.ScaleBits)
	}
	if o.LookupBits <= o.ScaleBits {
		return bad("LookupBits %d must exceed ScaleBits %d", o.LookupBits, o.ScaleBits)
	}
	if o.LookupBits > 26 {
		return bad("LookupBits %d out of range (max 26)", o.LookupBits)
	}
	if o.MinCols < 1 {
		return bad("MinCols %d must be positive", o.MinCols)
	}
	if o.MinCols > o.MaxCols {
		return bad("MinCols %d exceeds MaxCols %d", o.MinCols, o.MaxCols)
	}
	return nil
}

// System is the one-chunk view of a ShardedSystem, the system every model
// compiles to: Plan and Keys are its only chunk's plan and keys (for a
// plain model, the whole model's), and Proof is that chunk's proof. Each
// method is one call into the general system.
type System struct {
	Plan *core.Plan
	Keys *core.Keys
	sys  *ShardedSystem
}

// Proof is one circuit's proof with its public values; a one-chunk
// ShardedProof holds exactly one.
type Proof = core.Proof

// oneChunk wraps a one-chunk system in its System view.
func oneChunk(s *ShardedSystem, err error) (*System, error) {
	if err != nil {
		return nil, err
	}
	return &System{Plan: s.Plan.Chunks[0], Keys: s.Keys.Chunks[0], sys: s}, nil
}

// chain wraps a one-chunk proof as the chain the general system takes.
func chain(p *Proof) *ShardedProof { return &ShardedProof{Chunks: []*Proof{p}} }

// SetParallelism caps the worker count used by the proving engine's
// parallel stages (MSMs, FFTs, and the prover's per-column and per-row
// loops). n <= 0 restores the default of GOMAXPROCS. Proofs are
// byte-for-byte independent of this setting; it only trades wall-clock
// time against CPU. Not safe to call concurrently with an active Prove.
func SetParallelism(n int) { parallel.SetWorkers(n) }

// Parallelism reports the current proving-engine worker count.
func Parallelism() int { return parallel.Workers() }

// Model looks up a bundled evaluation model by name (see ModelNames).
func Model(name string) (model.Spec, error) { return model.Get(name) }

// ModelNames lists the bundled evaluation models (Table 5 of the paper).
func ModelNames() []string { return model.Names() }

// LoadModel reads a model specification from a JSON file.
func LoadModel(path string) (*Graph, error) { return model.Load(path) }

// calibration returns the cost calibration the options select: the
// explicit one, else the cached (or freshly measured) one at
// CalibrationPath.
func (o Options) calibration() *costmodel.Calibration {
	if o.Calibration != nil {
		return o.Calibration
	}
	return costmodel.LoadOrCalibrate(o.CalibrationPath)
}

// coreOptions validates the public options and maps them onto the core
// optimizer's.
func coreOptions(o Options) (core.Options, error) {
	if err := o.validate(); err != nil {
		return core.Options{}, err
	}
	o = o.withDefaults()
	opt := core.DefaultOptions(o.Backend, fixedpoint.Params{ScaleBits: o.ScaleBits, LookupBits: o.LookupBits})
	opt.Objective = o.Objective
	opt.MinCols, opt.MaxCols = o.MinCols, o.MaxCols
	opt.Calibration = o.calibration()
	return opt, nil
}

// Optimize runs the layout optimizer on one circuit without generating
// keys, returning the chosen plan and every candidate considered.
func Optimize(g *Graph, sample *Input, o Options) (*core.Plan, []core.Candidate, core.Stats, error) {
	opt, err := coreOptions(o)
	if err != nil {
		return nil, nil, core.Stats{}, err
	}
	return core.Optimize(g, sample, opt)
}

// Compile optimizes the circuit layout for a model and generates its
// proving and verification keys: CompileSharded with one chunk. The sample
// input drives the row-exact layout simulation; layouts never depend on
// input values.
func Compile(g *Graph, sample *Input, o Options) (*System, error) {
	return oneChunk(CompileSharded(g, sample, 1, o))
}

// Prove produces a ZK-SNARK that the committed model, applied to the given
// (private) input, yields the public outputs carried in the proof.
func (s *System) Prove(in *Input) (*Proof, error) {
	p, err := s.sys.Prove(in)
	if err != nil {
		return nil, err
	}
	return p.Chunks[0], nil
}

// ProveTraced is Prove with stage-level observability (DESIGN.md §11): it
// additionally returns an obs.Report with per-stage wall times and kernel
// counters (MSM/FFT counts by size, batch-inversion flushes, opening
// times). Tracing is proof-transparent — the proof bytes are identical to
// Prove's. The counters belong to this call, so traced proves may run
// concurrently with each other and with untraced ones.
func (s *System) ProveTraced(in *Input) (*Proof, *obs.Report, error) {
	p, rep, err := s.sys.ProveTraced(in)
	if err != nil {
		return nil, nil, err
	}
	return p.Chunks[0], rep, nil
}

// CompareEstimate lines a traced run's measured stage times up against the
// compiled plan's cost-model predictions (paper §7.4), one row per prover
// stage plus a total.
func (s *System) CompareEstimate(r *obs.Report) []obs.StageComparison {
	return s.sys.CompareEstimate(r)
}

// Verify checks a proof against the model's verification key. The verifier
// learns the model architecture and the outputs but neither the weights nor
// the input.
func (s *System) Verify(p *Proof) error {
	return s.sys.Verify(chain(p))
}

// AuditReport is the machine-readable result of the static circuit audit;
// AuditFinding is one located defect (see internal/audit for the defect
// taxonomy and severities).
type (
	AuditReport  = audit.Report
	AuditFinding = audit.Finding
)

// Audit statically analyzes the compiled circuit for soundness and liveness
// defects before any proof is made: unconstrained witness cells, gates and
// lookups whose selectors are never set, malformed copy-constraint wiring,
// lookup inputs whose statically-derivable range exceeds their table, and
// constraint degrees that overflow the quotient domain. The check is pinned
// to the exact degree bound and extended domain this system's proving key
// uses. A report with Clean() == false means proofs from this system do not
// enforce what the model graph claims.
func (s *System) Audit() (*AuditReport, error) {
	reps, err := s.sys.Audit()
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// Outputs dequantizes the public output values of a proof. A proof that
// carries no instance columns (possible for imported bytes — ImportProof
// accepts a zero column count, and verification is what rejects it) yields
// nil rather than panicking on untrusted input.
func (s *System) Outputs(p *Proof) []float64 {
	return s.sys.Outputs(chain(p))
}

// ExportProof serializes a proof (and its public values) for transport, in
// the one proof format: a chain of one chunk.
func (s *System) ExportProof(p *Proof) ([]byte, error) {
	return exportProof(chain(p))
}

// ImportProof deserializes a proof produced by ExportProof. The bytes are
// untrusted: structural failures (including non-canonical instance scalar
// encodings and a chunk count other than one) wrap ErrMalformedProof and
// arbitrary input never panics or over-allocates.
func (s *System) ImportProof(data []byte) (*Proof, error) {
	p, err := importProof(data, 1)
	if err != nil {
		return nil, err
	}
	return p.Chunks[0], nil
}

// ModelCommitment returns a digest binding the compiled circuit, including
// the committed (but hidden) weight columns — the public commitment an
// auditor pins (Figure 2 of the paper).
func (s *System) ModelCommitment() []byte {
	return s.sys.ModelCommitment()
}

// Describe summarizes the compiled layout.
func (s *System) Describe() string {
	return s.sys.Describe()
}
