// Package poly implements polynomial arithmetic over Fr: radix-2 NTTs on
// power-of-two evaluation domains, coset FFTs for quotient computation, and
// basic coefficient-form operations. FFT cost is the dominant prover cost
// tracked by the ZKML cost model (eq. (1) of the paper).
//
// Domains are cached per size and carry lazily-built, shared power tables
// (forward/inverse twiddles, coset scale factors, domain elements), so the
// butterfly loops are pure table-indexed multiply-adds: no per-butterfly
// twiddle advance and no per-chunk Exp reseeds survive on any hot path (see
// DESIGN.md §10).
package poly

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/ff"
	"repro/internal/parallel"
)

// parallelMin is the smallest transform size worth fanning out across
// workers; below it goroutine dispatch costs more than the butterflies.
const parallelMin = 1 << 11

// Domain is a multiplicative subgroup H = <omega> of size N = 2^LogN,
// optionally shifted by a coset generator for extended-domain evaluation.
// Domains are cached per size (NewDomain returns the shared instance) and
// all derived tables build lazily exactly once, so they must be treated as
// immutable after construction.
type Domain struct {
	N        int
	LogN     int
	Omega    ff.Element // primitive N-th root of unity
	OmegaInv ff.Element
	NInv     ff.Element
	// Coset generator g for the extended evaluation coset g·H. We use the
	// field's multiplicative generator so g·H never intersects H.
	CosetGen    ff.Element
	CosetGenInv ff.Element

	// Lazily-built shared tables. omegaPows doubles as the forward twiddle
	// table: stage s of the NTT reads omega^(j·N/2^(s+1)) = omegaPows[j<<shift].
	omegaPows  lazyTable // omega^i for i < N
	invPows    lazyTable // omegaInv^i for i < N/2 (inverse twiddles)
	cosetPows  lazyTable // g^i for i < N (CosetFFT input scaling)
	cosetScale lazyTable // NInv·g^-i for i < N (CosetIFFT output scaling, NInv folded in)
	cosetElems lazyTable // g·omega^i for i < N (the coset evaluation points)
}

// lazyTable is a build-once table slot; the built slice is read-only.
type lazyTable struct {
	once sync.Once
	t    []ff.Element
}

func (l *lazyTable) get(build func() []ff.Element) []ff.Element {
	l.once.Do(func() { l.t = build() })
	return l.t
}

// powers returns {c0·base^i : i < n}.
func powers(base, c0 ff.Element, n int) []ff.Element {
	out := make([]ff.Element, n)
	acc := c0
	for i := range out {
		out[i] = acc
		acc.Mul(&acc, &base)
	}
	return out
}

// domainCache shares one Domain (and therefore one set of twiddle tables)
// per size across keygen, prover, and verifier.
var (
	domainMu    sync.Mutex
	domainCache = map[int]*Domain{}
)

// NewDomain returns the evaluation domain of size n (a power of two).
// Instances are cached per size: repeated keygen/prove/verify calls share
// the same Domain and its lazily-built tables.
func NewDomain(n int) *Domain {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: domain size %d not a power of two", n))
	}
	domainMu.Lock()
	defer domainMu.Unlock()
	if d, ok := domainCache[n]; ok {
		return d
	}
	logN := bits.TrailingZeros(uint(n))
	d := &Domain{N: n, LogN: logN}
	d.Omega = ff.RootOfUnity(logN)
	d.OmegaInv.Inverse(&d.Omega)
	nEl := ff.NewElement(uint64(n))
	d.NInv.Inverse(&nEl)
	d.CosetGen = ff.MultiplicativeGen()
	d.CosetGenInv.Inverse(&d.CosetGen)
	domainCache[n] = d
	return d
}

func (d *Domain) elements() []ff.Element {
	return d.omegaPows.get(func() []ff.Element { return powers(d.Omega, ff.One(), d.N) })
}

func (d *Domain) invTwiddles() []ff.Element {
	return d.invPows.get(func() []ff.Element { return powers(d.OmegaInv, ff.One(), d.N/2) })
}

func (d *Domain) cosetScaleIn() []ff.Element {
	return d.cosetPows.get(func() []ff.Element { return powers(d.CosetGen, ff.One(), d.N) })
}

func (d *Domain) cosetScaleOut() []ff.Element {
	return d.cosetScale.get(func() []ff.Element { return powers(d.CosetGenInv, d.NInv, d.N) })
}

// Element returns omega^i (table lookup; i may be negative or exceed N).
func (d *Domain) Element(i int) ff.Element {
	i = ((i % d.N) + d.N) % d.N
	return d.elements()[i]
}

// Elements returns all N domain elements in order. The slice is the shared
// cached table: callers must treat it as read-only.
func (d *Domain) Elements() []ff.Element {
	return d.elements()
}

// CosetElements returns the extended-coset evaluation points g·omega^i in
// order. The slice is the shared cached table: callers must treat it as
// read-only.
func (d *Domain) CosetElements() []ff.Element {
	return d.cosetElems.get(func() []ff.Element { return powers(d.Omega, d.CosetGen, d.N) })
}

// bitReverse permutes v in place by bit-reversed index.
func bitReverse(v []ff.Element) {
	n := len(v)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// ntt runs an in-place radix-2 NTT reading twiddles from tw, where
// tw[i] = root^i for i < n/2. Stage s (blocks of size 2^(s+1)) uses the
// strided subset tw[off<<(logN-1-s)] = root^(off·n/2^(s+1)), so every
// butterfly is one table read plus one multiply-add — no running twiddle
// product. Each stage's n/2 butterflies touch disjoint index pairs, so large
// transforms split the butterfly range across the worker pool; chunks index
// the same shared table, making the result bit-identical to the serial
// schedule at every worker count.
func ntt(v []ff.Element, tw []ff.Element) {
	n := len(v)
	if n <= 1 {
		return
	}
	logN := bits.TrailingZeros(uint(n))
	bitReverse(v)
	par := n >= parallelMin && parallel.Workers() > 1
	for s := 0; s < logN; s++ {
		half := 1 << uint(s)
		size := half << 1
		shift := uint(logN - 1 - s)
		if !par {
			for start := 0; start < n; start += size {
				ti := 0
				for i := start; i < start+half; i++ {
					butterfly(v, i, half, &tw[ti])
					ti += 1 << shift
				}
			}
			continue
		}
		parallel.Range(n/2, func(lo, hi int) {
			// Butterfly t lives in block t/half at offset t%half with
			// twiddle root^(off·n/size).
			for t := lo; t < hi; t++ {
				off := t & (half - 1)
				i := (t>>uint(s))<<uint(s+1) | off
				butterfly(v, i, half, &tw[off<<shift])
			}
		})
	}
}

// butterfly applies one NTT butterfly at index i with stride half and
// twiddle w.
func butterfly(v []ff.Element, i, half int, w *ff.Element) {
	var t ff.Element
	t.Mul(w, &v[i+half])
	v[i+half].Sub(&v[i], &t)
	v[i].Add(&v[i], &t)
}

// mulByTable multiplies v[i] by table[i] in place, chunked across the
// worker pool.
func mulByTable(v, table []ff.Element) {
	if len(v) < parallelMin || parallel.Workers() <= 1 {
		for i := range v {
			v[i].Mul(&v[i], &table[i])
		}
		return
	}
	parallel.Range(len(v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i].Mul(&v[i], &table[i])
		}
	})
}

// scaleUniform multiplies every element of v by c in place.
func scaleUniform(v []ff.Element, c ff.Element) {
	if len(v) < parallelMin || parallel.Workers() <= 1 {
		for i := range v {
			v[i].Mul(&v[i], &c)
		}
		return
	}
	parallel.Range(len(v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i].Mul(&v[i], &c)
		}
	})
}

// FFT converts coefficient form to evaluation form over H, in place.
func (d *Domain) FFT(v []ff.Element) {
	if len(v) != d.N {
		panic("poly: FFT length mismatch")
	}
	ntt(v, d.elements())
}

// IFFT converts evaluation form over H to coefficient form, in place.
func (d *Domain) IFFT(v []ff.Element) {
	if len(v) != d.N {
		panic("poly: IFFT length mismatch")
	}
	ntt(v, d.invTwiddles())
	scaleUniform(v, d.NInv)
}

// CosetFFT evaluates the coefficient-form polynomial over the coset g·H,
// in place.
func (d *Domain) CosetFFT(v []ff.Element) {
	if len(v) != d.N {
		panic("poly: CosetFFT length mismatch")
	}
	mulByTable(v, d.cosetScaleIn())
	ntt(v, d.elements())
}

// CosetIFFT interpolates evaluations over g·H back to coefficient form,
// in place.
func (d *Domain) CosetIFFT(v []ff.Element) {
	if len(v) != d.N {
		panic("poly: CosetIFFT length mismatch")
	}
	ntt(v, d.invTwiddles())
	mulByTable(v, d.cosetScaleOut())
}

// Eval evaluates the coefficient-form polynomial p at x (Horner).
func Eval(p []ff.Element, x ff.Element) ff.Element {
	var acc ff.Element
	for i := len(p) - 1; i >= 0; i-- {
		acc.Mul(&acc, &x)
		acc.Add(&acc, &p[i])
	}
	return acc
}

// VanishingEval returns Z_H(x) = x^N - 1 for a domain of size n.
func VanishingEval(n int, x ff.Element) ff.Element {
	var z ff.Element
	z.ExpUint64(&x, uint64(n))
	one := ff.One()
	z.Sub(&z, &one)
	return z
}

// LagrangeEval returns l_i(x) = (omega^i / N) * (x^N - 1) / (x - omega^i),
// the i-th Lagrange basis polynomial of H evaluated at x outside H.
func (d *Domain) LagrangeEval(i int, x ff.Element) ff.Element {
	wi := d.Element(i)
	var den ff.Element
	den.Sub(&x, &wi)
	if den.IsZero() {
		// x is on the domain: l_i(omega^j) = [i == j].
		if x.Equal(&wi) {
			return ff.One()
		}
		return ff.Zero()
	}
	num := VanishingEval(d.N, x)
	var out ff.Element
	out.Inverse(&den)
	out.Mul(&out, &num)
	out.Mul(&out, &wi)
	out.Mul(&out, &d.NInv)
	return out
}

// DivideByLinear divides p(X) by (X - z), returning the quotient. The
// caller must ensure p(z) == 0 (i.e., pass p - p(z) if needed); the
// remainder is discarded. This is the KZG opening witness computation.
func DivideByLinear(p []ff.Element, z ff.Element) []ff.Element {
	if len(p) == 0 {
		return nil
	}
	q := make([]ff.Element, len(p)-1)
	// Synthetic division from the top coefficient down.
	var carry ff.Element
	for i := len(p) - 1; i >= 1; i-- {
		var c ff.Element
		c.Add(&p[i], &carry)
		q[i-1] = c
		carry.Mul(&c, &z)
	}
	return q
}

// Add returns p + q as a new coefficient slice.
func Add(p, q []ff.Element) []ff.Element {
	n := max(len(p), len(q))
	out := make([]ff.Element, n)
	copy(out, p)
	for i := range q {
		out[i].Add(&out[i], &q[i])
	}
	return out
}

// AddScaled sets p += c*q in place, growing p if needed, and returns p.
func AddScaled(p []ff.Element, c ff.Element, q []ff.Element) []ff.Element {
	if len(q) > len(p) {
		grown := make([]ff.Element, len(q))
		copy(grown, p)
		p = grown
	}
	for i := range q {
		var t ff.Element
		t.Mul(&c, &q[i])
		p[i].Add(&p[i], &t)
	}
	return p
}

// MulNaive returns p*q by schoolbook multiplication (used in tests and for
// small polynomials only).
func MulNaive(p, q []ff.Element) []ff.Element {
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	out := make([]ff.Element, len(p)+len(q)-1)
	for i := range p {
		if p[i].IsZero() {
			continue
		}
		for j := range q {
			var t ff.Element
			t.Mul(&p[i], &q[j])
			out[i+j].Add(&out[i+j], &t)
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
