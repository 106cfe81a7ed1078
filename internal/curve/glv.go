package curve

import (
	"encoding/binary"
	"math/big"
	"sync/atomic"

	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// GLV scalar decomposition (DESIGN.md §14). BN254 has an efficient
// endomorphism φ(x, y) = (β·x, y) acting on G1 as multiplication by λ,
// where β and λ are primitive cube roots of unity in Fp and Fr. Writing a
// scalar k as k₁ + λ·k₂ with |k₁|, |k₂| ≈ √r turns one 254-bit MSM into a
// double-size MSM over ~129-bit scalars: the bucket-add count is unchanged,
// but the window passes — and with them the bucket reductions and the
// Horner doubling chain — are halved, and the fixed-base table path needs
// half the precomputed windows per basis point.
//
// All constants are derived (and self-checked) at init from the curve
// parameters rather than pasted in, so a mismatch is a startup panic, not a
// silently wrong proof.

// glvHalfBits bounds the bit length of decomposed half-scalars: √r is 127
// bits and the round-to-nearest lattice reduction adds at most a couple of
// bits of slop. Window schedules are sized from this; the decomposition
// paths still re-check the actual maximum and fall back to the generic
// kernel if it is ever exceeded (unreachable unless the derived constants
// are wrong, which init rules out).
const glvHalfBits = 129

// glvRoundShift is the fixed-point precision of the precomputed rounding
// constants: 384 = 256 + 128 bits keeps the truncation error of
// round(k·bᵢ/det) below one for any 254-bit k.
const glvRoundShift = 384

var (
	glvBeta   Fp       // β: primitive cube root of unity in Fp
	glvLambda *big.Int // λ: the matching cube root of unity in Fr

	// Short lattice basis for the kernel of (k₁, k₂) → k₁ + λ·k₂ (mod r):
	// both (a1, b1) and (a2, b2) satisfy aᵢ + λ·bᵢ ≡ 0 (mod r) with entries
	// of ≈ √r size.
	glvA1, glvB1, glvA2, glvB2 *big.Int

	// Fixed-point rounding constants: g1 = round(b2·2^shift / det),
	// g2 = round(-b1·2^shift / det), det = a1·b2 - a2·b1 = ±r.
	glvG1, glvG2 *big.Int
	glvRoundHalf *big.Int // 2^(shift-1)
)

func init() {
	glvDeriveConstants()
	glvSelfCheck()
}

// GLVLambda returns λ, the scalar the endomorphism Phi multiplies by.
func GLVLambda() *big.Int { return new(big.Int).Set(glvLambda) }

// GLVWindows reports the signed-window schedule the GLV variable-base path
// uses for an n-point MSM: the window width c (chosen for the doubled point
// count) and the per-half-scalar window count. The cost model derives its
// MSM operation count from the same schedule.
func GLVWindows(n int) (c, nw int) {
	c = windowSize(2 * n)
	return c, glvHalfBits/c + 1
}

// Phi applies the GLV endomorphism φ(x, y) = (β·x, y), which acts on G1 as
// multiplication by λ. One field multiplication — vastly cheaper than the
// scalar multiplication it stands in for.
func Phi(p *Affine) Affine {
	if p.Inf {
		return *p
	}
	out := Affine{Y: p.Y}
	out.X.mul(&glvBeta, &p.X)
	return out
}

// primitiveCubeRoot returns a primitive cube root of unity modulo m
// (requires m ≡ 1 mod 3, true for both BN254 moduli): c^((m-1)/3) for the
// first small c where that power is nontrivial.
func primitiveCubeRoot(m *big.Int) *big.Int {
	e := new(big.Int).Sub(m, big.NewInt(1))
	e.Div(e, big.NewInt(3))
	one := big.NewInt(1)
	for c := int64(2); ; c++ {
		w := new(big.Int).Exp(big.NewInt(c), e, m)
		if w.Cmp(one) != 0 {
			return w
		}
	}
}

// glvDeriveConstants derives β, λ, the lattice basis, and the rounding
// constants from the curve parameters.
func glvDeriveConstants() {
	p := fpMod.Big
	r := ff.Modulus()

	// β and λ each have two nontrivial candidates (w and w²); the pair is
	// fixed by requiring φ(G) = λ·G on the generator.
	wp := primitiveCubeRoot(p)
	wp2 := new(big.Int).Mul(wp, wp)
	wp2.Mod(wp2, p)
	wr := primitiveCubeRoot(r)
	wr2 := new(big.Int).Mul(wr, wr)
	wr2.Mod(wr2, r)

	g := Generator()
	for _, bc := range []*big.Int{wp, wp2} {
		beta := fpFromBig(bc)
		var phiX Fp
		phiX.mul(&beta, &g.X)
		phiG := Affine{X: phiX, Y: g.Y}
		for _, lc := range []*big.Int{wr, wr2} {
			lg := ScalarMulBig(&g, lc).ToAffine()
			if lg.Equal(&phiG) {
				glvBeta = beta
				glvLambda = lc
			}
		}
	}
	if glvLambda == nil {
		panic("curve: no (β, λ) pair satisfies φ(G) = λ·G")
	}

	// Short lattice basis via the extended Euclidean algorithm on (r, λ),
	// stopped at the √r crossing (Gallant–Lambert–Vanstone). The invariant
	// tᵢ·λ ≡ rᵢ (mod r) makes every (rᵢ, -tᵢ) a lattice vector.
	sqrtR := new(big.Int).Sqrt(r)
	r0, r1 := new(big.Int).Set(r), new(big.Int).Set(glvLambda)
	t0, t1 := big.NewInt(0), big.NewInt(1)
	q, tmp := new(big.Int), new(big.Int)
	for r1.Cmp(sqrtR) >= 0 {
		q.Div(r0, r1)
		tmp.Mul(q, r1)
		r0.Sub(r0, tmp)
		r0, r1 = r1, r0
		tmp.Mul(q, t1)
		t0.Sub(t0, tmp)
		t0, t1 = t1, t0
	}
	// Here r1 < √r ≤ r0: (a1, b1) = (r_{l+1}, -t_{l+1}) is the first short
	// vector; the second is the shorter of (r_l, -t_l) and (r_{l+2}, -t_{l+2}).
	glvA1 = new(big.Int).Set(r1)
	glvB1 = new(big.Int).Neg(t1)
	q.Div(r0, r1)
	r2 := new(big.Int).Mul(q, r1)
	r2.Sub(r0, r2)
	t2 := new(big.Int).Mul(q, t1)
	t2.Sub(t0, t2)
	normL := new(big.Int).Mul(r0, r0)
	normL.Add(normL, tmp.Mul(t0, t0))
	normN := new(big.Int).Mul(r2, r2)
	normN.Add(normN, tmp.Mul(t2, t2))
	if normL.Cmp(normN) <= 0 {
		glvA2 = new(big.Int).Set(r0)
		glvB2 = new(big.Int).Neg(t0)
	} else {
		glvA2 = r2
		glvB2 = new(big.Int).Neg(t2)
	}

	// det = a1·b2 - a2·b1 = ±r; normalize to +r so the fixed-point division
	// below rounds against a positive denominator.
	det := new(big.Int).Mul(glvA1, glvB2)
	det.Sub(det, tmp.Mul(glvA2, glvB1))
	if det.Sign() < 0 {
		det.Neg(det)
		glvA2.Neg(glvA2)
		glvB2.Neg(glvB2)
	}
	if det.Cmp(r) != 0 {
		panic("curve: GLV lattice determinant is not ±r")
	}

	roundDiv := func(num *big.Int) *big.Int {
		t := new(big.Int).Lsh(num, glvRoundShift)
		t.Add(t, new(big.Int).Rsh(det, 1))
		return t.Div(t, det) // Euclidean Div floors for det > 0
	}
	glvG1 = roundDiv(glvB2)
	glvG2 = roundDiv(new(big.Int).Neg(glvB1))
	glvRoundHalf = new(big.Int).Lsh(big.NewInt(1), glvRoundShift-1)
}

// glvSelfCheck validates the derived constants on adversarial scalars: the
// recombination identity k₁ + λ·k₂ ≡ k (mod r) (exact for any rounding) and
// the half-scalar size bound the window schedules rely on.
func glvSelfCheck() {
	r := ff.Modulus()
	checks := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Rsh(r, 1),
		new(big.Int).Set(glvLambda),
		new(big.Int).Sub(r, glvLambda),
	}
	for i := 0; i < 8; i++ {
		k := new(big.Int).Exp(big.NewInt(int64(i+3)), big.NewInt(200), r)
		checks = append(checks, k)
	}
	var sc glvScratch
	k1, k2 := new(big.Int), new(big.Int)
	got := new(big.Int)
	for _, k := range checks {
		sc.decompose(k, k1, k2)
		got.Mul(glvLambda, k2)
		got.Add(got, k1)
		got.Mod(got, r)
		if got.Cmp(k) != 0 {
			panic("curve: GLV decomposition does not recombine to k")
		}
		if k1.BitLen() > glvHalfBits || k2.BitLen() > glvHalfBits {
			panic("curve: GLV half-scalar exceeds the size bound")
		}
	}
}

// glvScratch holds the per-goroutine big.Int temporaries for decompose, so
// bulk decomposition allocates per chunk instead of per scalar.
type glvScratch struct {
	c1, c2, t big.Int
}

// decompose writes the lattice reduction of k into k1, k2: k₁ + λ·k₂ ≡ k
// (mod r). c₁, c₂ = round(k·bᵢ/det) computed with the precomputed
// fixed-point constants; the identity holds exactly for any c₁, c₂ (they
// cancel lattice vectors), rounding only controls the result's size.
func (sc *glvScratch) decompose(k, k1, k2 *big.Int) {
	c1 := &sc.c1
	c1.Mul(k, glvG1)
	c1.Add(c1, glvRoundHalf)
	c1.Rsh(c1, glvRoundShift) // arithmetic shift: floor for either sign
	c2 := &sc.c2
	c2.Mul(k, glvG2)
	c2.Add(c2, glvRoundHalf)
	c2.Rsh(c2, glvRoundShift)

	t := &sc.t
	k1.Mul(c1, glvA1)
	t.Mul(c2, glvA2)
	k1.Add(k1, t)
	k1.Sub(k, k1)
	k2.Mul(c1, glvB1)
	t.Mul(c2, glvB2)
	k2.Add(k2, t)
	k2.Neg(k2)
}

// GLVDecompose splits a scalar into (k₁, k₂) with k₁ + λ·k₂ ≡ k (mod r) and
// |k₁|, |k₂| < 2^129. Exported for tests and the fuzz target; the kernels
// use the bulk path below.
func GLVDecompose(s *ff.Element) (k1, k2 *big.Int) {
	var sc glvScratch
	k1, k2 = new(big.Int), new(big.Int)
	sc.decompose(s.BigInt(), k1, k2)
	return k1, k2
}

// glvSplit is one decomposed scalar: |k₁|, |k₂| as little-endian limbs plus
// their signs, ready for signed-digit recoding.
type glvSplit struct {
	k1, k2     [4]uint64
	neg1, neg2 bool
}

// absLimbs returns |v| as little-endian 64-bit limbs. Word-size-independent
// (big.Int.Bits would need per-platform reassembly on 32-bit hosts).
func absLimbs(v *big.Int) [4]uint64 {
	var b [32]byte
	v.FillBytes(b[:]) // absolute value, zero-extended big-endian
	var l [4]uint64
	for i := 0; i < 4; i++ {
		l[i] = binary.BigEndian.Uint64(b[32-8*(i+1) : 32-8*i])
	}
	return l
}

// glvDecomposeAll decomposes every scalar into splits and returns the
// maximum half-scalar bit length (0 when every scalar is zero mod r).
func glvDecomposeAll(scalars []ff.Element, splits []glvSplit) int {
	var maxBits atomic.Int32
	chunk := func(lo, hi int) {
		var sc glvScratch
		var k1, k2 big.Int
		mb := 0
		for i := lo; i < hi; i++ {
			sc.decompose(scalars[i].BigInt(), &k1, &k2)
			if b := k1.BitLen(); b > mb {
				mb = b
			}
			if b := k2.BitLen(); b > mb {
				mb = b
			}
			splits[i] = glvSplit{
				k1:   absLimbs(&k1),
				k2:   absLimbs(&k2),
				neg1: k1.Sign() < 0,
				neg2: k2.Sign() < 0,
			}
		}
		for {
			cur := maxBits.Load()
			if int32(mb) <= cur || maxBits.CompareAndSwap(cur, int32(mb)) {
				break
			}
		}
	}
	if len(scalars) >= msmParallelMin && parallel.Workers() > 1 {
		parallel.Range(len(scalars), chunk)
	} else {
		chunk(0, len(scalars))
	}
	return int(maxBits.Load())
}

// msmGLV is the GLV variable-base MSM: decompose every scalar, expand to 2n
// points (sign-folded, φ-image interleaved), and run the same signed-window
// bucket machinery over half-length scalars — half the window passes,
// bucket reductions, and Horner doublings of the plain kernel. GLV splits
// and batch-inversion flushes are recorded into k (nil: untraced).
func msmGLV(points []Affine, scalars []ff.Element, k *obs.KernelCounters) Jac {
	n := len(points)
	splits := make([]glvSplit, n)
	maxBits := glvDecomposeAll(scalars, splits)
	if maxBits > glvHalfBits {
		// Unreachable with self-checked constants; never compute a wrong
		// answer over it.
		return msmPlain(points, scalars, k)
	}
	if maxBits == 0 {
		return Jac{}
	}
	k.RecordGLVSplit(n)
	c := windowSize(2 * n)
	// nw·c ≥ maxBits+1, so the top signed digit absorbs its carry.
	nw := maxBits/c + 1

	pts2 := make([]Affine, 2*n)
	digits := make([]int32, 2*n*nw)
	expand := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := points[i]
			if splits[i].neg1 {
				p = p.Neg()
			}
			pts2[2*i] = p
			ph := Phi(&points[i])
			if splits[i].neg2 {
				ph = ph.Neg()
			}
			pts2[2*i+1] = ph
			recodeRow(&splits[i].k1, digits[(2*i)*nw:(2*i+1)*nw], c)
			recodeRow(&splits[i].k2, digits[(2*i+1)*nw:(2*i+2)*nw], c)
		}
	}
	if n >= msmParallelMin && parallel.Workers() > 1 {
		parallel.Range(n, expand)
	} else {
		expand(0, n)
	}

	sums := make([]Jac, nw)
	window := func(w int) {
		if half := 1 << uint(c-1); half >= msmAffineMinBuckets {
			sums[w] = windowSumAffine(pts2, digits, w, nw, c, k)
		} else {
			sums[w] = windowSumJac(pts2, digits, w, nw, c)
		}
	}
	if n >= msmParallelMin && parallel.Workers() > 1 {
		parallel.For(nw, window)
	} else {
		for w := 0; w < nw; w++ {
			window(w)
		}
	}

	total := sums[nw-1]
	for w := nw - 2; w >= 0; w-- {
		for i := 0; i < c; i++ {
			total.Double()
		}
		total.AddAssign(&sums[w])
	}
	return total
}
