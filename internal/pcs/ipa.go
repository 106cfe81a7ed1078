package pcs

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/transcript"
	"repro/internal/zkerrors"
)

// IPAScheme is a transparent polynomial commitment: a Pedersen vector
// commitment over a hash-to-curve basis, opened with a Bulletproofs-style
// inner-product argument. Proofs are 2·log(n) points plus a scalar and
// verification costs one size-n MSM — the "larger proofs, higher
// verification time" trade-off Table 7 of the paper reports for IPA.
type IPAScheme struct {
	basis []curve.Affine // G_i
	u     curve.Affine   // inner-product anchor
	n     int            // padded (power-of-two) vector length
}

var (
	ipaMu    sync.Mutex
	ipaBasis []curve.Affine
	ipaU     *curve.Affine
)

// NewIPA returns an IPA scheme supporting polynomials of up to maxLen
// coefficients (rounded up to a power of two). The basis is derived by
// hash-to-curve, so no trusted setup exists; basis points are memoized
// process-wide because derivation dominates setup time.
func NewIPA(maxLen int) *IPAScheme {
	n := 1
	for n < maxLen {
		n <<= 1
	}
	ipaMu.Lock()
	defer ipaMu.Unlock()
	if ipaU == nil {
		u := curve.HashToCurve("ipa-u", 0)
		ipaU = &u
	}
	for len(ipaBasis) < n {
		ipaBasis = append(ipaBasis, curve.HashToCurve("ipa-basis", len(ipaBasis)))
		setupWork.ipaPointsDerived.Add(1)
	}
	return &IPAScheme{basis: ipaBasis[:n], u: *ipaU, n: n}
}

// Backend implements Scheme.
func (s *IPAScheme) Backend() Backend { return IPA }

// MaxLen implements Scheme.
func (s *IPAScheme) MaxLen() int { return s.n }

// Commit implements Scheme. Large commitments run against the lazily-built
// fixed-base table over the shared basis (see fixedbase.go).
func (s *IPAScheme) Commit(p []ff.Element, kc *obs.KernelCounters) curve.Affine {
	if len(p) > s.n {
		panic("pcs: polynomial exceeds IPA basis size")
	}
	return commitMSM(&ipaCommitTables, s.basis, p, kc)
}

// Open implements Scheme. The recursion folds vectors a (coefficients) and
// b (powers of z) along with the basis; each round emits cross terms L, R.
func (s *IPAScheme) Open(tr *transcript.Transcript, p []ff.Element, z ff.Element, kc *obs.KernelCounters) *Opening {
	a := make([]ff.Element, s.n)
	copy(a, p)
	b := make([]ff.Element, s.n)
	acc := ff.One()
	for i := range b {
		b[i] = acc
		acc.Mul(&acc, &z)
	}
	g := make([]curve.Jac, s.n)
	for i := range g {
		g[i] = s.basis[i].ToJac()
	}

	rounds := bits.TrailingZeros(uint(s.n))
	proof := &Opening{L: make([]curve.Affine, 0, rounds), R: make([]curve.Affine, 0, rounds)}
	n := s.n
	for n > 1 {
		h := n / 2
		cl := innerProduct(a[:h], b[h:n])
		cr := innerProduct(a[h:n], b[:h])
		// L = <a_lo, G_hi> + c_L·U ; R = <a_hi, G_lo> + c_R·U.
		gHi := curve.BatchToAffine(g[h:n])
		gLo := curve.BatchToAffine(g[:h])
		l := curve.MSMCounted(gHi, a[:h], kc)
		t := curve.ScalarMul(&s.u, &cl)
		l.AddAssign(&t)
		r := curve.MSMCounted(gLo, a[h:n], kc)
		t = curve.ScalarMul(&s.u, &cr)
		r.AddAssign(&t)

		la, ra := l.ToAffine(), r.ToAffine()
		tr.AppendPoint("ipa-L", la)
		tr.AppendPoint("ipa-R", ra)
		proof.L = append(proof.L, la)
		proof.R = append(proof.R, ra)

		x := tr.Challenge("ipa-x")
		var xInv ff.Element
		xInv.Inverse(&x)
		for i := 0; i < h; i++ {
			// a' = x·a_lo + x^{-1}·a_hi
			var t1, t2 ff.Element
			t1.Mul(&x, &a[i])
			t2.Mul(&xInv, &a[i+h])
			a[i].Add(&t1, &t2)
			// b' = x^{-1}·b_lo + x·b_hi
			t1.Mul(&xInv, &b[i])
			t2.Mul(&x, &b[i+h])
			b[i].Add(&t1, &t2)
			// G' = x^{-1}·G_lo + x·G_hi
			lo := scalarMulJac(&g[i], &xInv)
			hi := scalarMulJac(&g[i+h], &x)
			lo.AddAssign(&hi)
			g[i] = lo
		}
		n = h
	}
	proof.A = a[0]
	tr.AppendScalar("ipa-a", proof.A)
	return proof
}

// Verify implements Scheme. The opening is untrusted: nil openings, wrong
// round counts, and a stray KZG witness point (which this check would
// silently ignore, making the wire encoding malleable) are rejected as
// malformed before any dereference.
func (s *IPAScheme) Verify(tr *transcript.Transcript, c curve.Affine, z, y ff.Element, o *Opening) error {
	if o == nil {
		return fmt.Errorf("pcs: nil IPA opening: %w", zkerrors.ErrMalformedProof)
	}
	rounds := bits.TrailingZeros(uint(s.n))
	if len(o.L) != rounds || len(o.R) != rounds {
		return fmt.Errorf("pcs: IPA proof has %d/%d cross terms, want %d rounds: %w",
			len(o.L), len(o.R), rounds, zkerrors.ErrMalformedProof)
	}
	if !o.KZGWitness.IsZero() {
		return fmt.Errorf("pcs: IPA opening carries a KZG witness: %w", zkerrors.ErrMalformedProof)
	}
	// P_0 = C + y·U.
	p := c.ToJac()
	t := curve.ScalarMul(&s.u, &y)
	p.AddAssign(&t)

	xs := make([]ff.Element, rounds)
	xInvs := make([]ff.Element, rounds)
	for j := 0; j < rounds; j++ {
		tr.AppendPoint("ipa-L", o.L[j])
		tr.AppendPoint("ipa-R", o.R[j])
		xs[j] = tr.Challenge("ipa-x")
		xInvs[j] = xs[j]
	}
	ff.BatchInverse(xInvs)
	tr.AppendScalar("ipa-a", o.A)

	// Per-round squares, shared by the P_final fold below and the O(n)
	// bit-flip DP (which previously recomputed x_j^2 for every i).
	x2s := make([]ff.Element, rounds)
	for j := 0; j < rounds; j++ {
		x2s[j].Square(&xs[j])
	}

	// P_final = P_0 + sum x_j^2 L_j + x_j^{-2} R_j.
	for j := 0; j < rounds; j++ {
		var xInv2 ff.Element
		xInv2.Square(&xInvs[j])
		tl := curve.ScalarMul(&o.L[j], &x2s[j])
		tr2 := curve.ScalarMul(&o.R[j], &xInv2)
		p.AddAssign(&tl)
		p.AddAssign(&tr2)
	}

	// s_i = prod_j (bit(i, rounds-1-j) ? x_j : x_j^{-1}).
	sv := make([]ff.Element, s.n)
	sv[0] = ff.One()
	for j := 0; j < rounds; j++ {
		sv[0].Mul(&sv[0], &xInvs[j])
	}
	// Build by bit-flip DP: s[i] = s[i without top set bit] * x_j^2 for the
	// corresponding round j.
	for i := 1; i < s.n; i++ {
		top := bits.Len(uint(i)) - 1 // highest set bit position
		j := rounds - 1 - top        // round index for that bit
		prev := i &^ (1 << uint(top))
		sv[i].Mul(&sv[prev], &x2s[j])
	}
	gFinal := curve.MSM(s.basis, sv)

	// b_final = prod_j (x_j^{-1} + x_j z^(n/2^(j+1))).
	bFinal := ff.One()
	exp := s.n / 2
	zp := z
	// Precompute z^(2^k) values indexed by exponent.
	zPows := map[int]ff.Element{1: z}
	for e := 2; e <= s.n/2; e <<= 1 {
		var sq ff.Element
		sq.Square(&zp)
		zp = sq
		zPows[e] = zp
	}
	for j := 0; j < rounds; j++ {
		var term ff.Element
		zpj := zPows[exp]
		term.Mul(&xs[j], &zpj)
		term.Add(&term, &xInvs[j])
		bFinal.Mul(&bFinal, &term)
		exp /= 2
	}
	if s.n == 1 {
		bFinal = ff.One()
	}

	// Check P_final == a·G_final + a·b_final·U.
	rhs := gFinal
	var ab ff.Element
	ab.Mul(&o.A, &bFinal)
	ru := curve.ScalarMul(&s.u, &ab)
	rhsScaled := scalarMulJac(&rhs, &o.A)
	rhsScaled.AddAssign(&ru)
	pa, ra := p.ToAffine(), rhsScaled.ToAffine()
	if !pa.Equal(&ra) {
		return fmt.Errorf("pcs: IPA opening check failed: %w", zkerrors.ErrVerifyFailed)
	}
	return nil
}

func innerProduct(a, b []ff.Element) ff.Element {
	var acc, t ff.Element
	for i := range a {
		t.Mul(&a[i], &b[i])
		acc.Add(&acc, &t)
	}
	return acc
}

func scalarMulJac(p *curve.Jac, s *ff.Element) curve.Jac {
	a := p.ToAffine()
	return curve.ScalarMul(&a, s)
}
