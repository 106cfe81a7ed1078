// Package pcs implements the two polynomial-commitment backends the paper's
// halo2 stack supports: KZG (small proofs, constant-time verification,
// trusted setup) and IPA (transparent, larger proofs, linear-time
// verification). The Plonkish prover batches many polynomial openings per
// point via random linear combination, so each backend only needs
// single-polynomial, single-point open/verify.
package pcs

import (
	"errors"
	"fmt"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/transcript"
)

// Backend identifies a commitment scheme.
type Backend int

const (
	// KZG is the pairing-based scheme with O(1) verification.
	KZG Backend = iota
	// IPA is the transparent inner-product-argument scheme.
	IPA
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case KZG:
		return "KZG"
	case IPA:
		return "IPA"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Opening is a single-point opening proof from either backend.
type Opening struct {
	// KZGWitness is the quotient commitment pi (KZG only).
	KZGWitness curve.Affine
	// IPA fields: log-round cross terms and the final folded scalar.
	L, R []curve.Affine
	A    ff.Element
}

// Size returns the serialized proof size in bytes (32-byte compressed
// points, 32-byte scalars), the quantity reported in the paper's proof-size
// columns.
func (o *Opening) Size() int {
	if len(o.L) == 0 && len(o.R) == 0 {
		return 32 // single KZG witness point
	}
	return 32*(len(o.L)+len(o.R)) + 32
}

// Scheme is the interface shared by both backends. Commit and Open record
// the MSMs they run into kc, the calling prove's kernel counters
// (DESIGN.md §11); untraced callers, keygen and tests pass nil.
type Scheme interface {
	// Backend identifies the scheme.
	Backend() Backend
	// MaxLen is the maximum polynomial length (degree+1) supported.
	MaxLen() int
	// Commit returns a binding commitment to the coefficient vector.
	Commit(p []ff.Element, kc *obs.KernelCounters) curve.Affine
	// Open proves p(z) == y, absorbing proof messages into tr.
	Open(tr *transcript.Transcript, p []ff.Element, z ff.Element, kc *obs.KernelCounters) *Opening
	// Verify checks an opening against a commitment, mirroring Open's
	// transcript absorption.
	Verify(tr *transcript.Transcript, c curve.Affine, z, y ff.Element, o *Opening) error
}

// New returns a scheme instance of the given backend supporting
// polynomials up to maxLen coefficients.
func New(b Backend, maxLen int) (Scheme, error) {
	switch b {
	case KZG:
		return NewKZG(maxLen), nil
	case IPA:
		return NewIPA(maxLen), nil
	default:
		return nil, errors.New("pcs: unknown backend")
	}
}
