package curve

import (
	"math/big"
	"testing"

	"repro/internal/ff"
	"repro/internal/parallel"
)

func TestGeneratorOnCurve(t *testing.T) {
	g := Generator()
	if !g.IsOnCurve() {
		t.Fatal("generator not on curve")
	}
}

func TestGeneratorOrder(t *testing.T) {
	// r * G == infinity for the scalar field order r.
	g := Generator()
	p := ScalarMulBig(&g, ff.Modulus())
	if !p.IsInf() {
		t.Fatal("r*G != infinity: wrong group order")
	}
}

func TestAddMatchesScalarMul(t *testing.T) {
	g := Generator()
	// 2G + 3G == 5G.
	two := ff.NewElement(2)
	three := ff.NewElement(3)
	five := ff.NewElement(5)
	p2 := ScalarMul(&g, &two)
	p3 := ScalarMul(&g, &three)
	p5 := ScalarMul(&g, &five)
	sum := p2
	sum.AddAssign(&p3)
	a, b := sum.ToAffine(), p5.ToAffine()
	if !a.Equal(&b) {
		t.Fatal("2G + 3G != 5G")
	}
}

func TestDoubleMatchesAdd(t *testing.T) {
	g := Generator()
	k := ff.Random()
	p := ScalarMul(&g, &k)
	dbl := p
	dbl.Double()
	sum := p
	sum.AddAssign(&p)
	a, b := dbl.ToAffine(), sum.ToAffine()
	if !a.Equal(&b) {
		t.Fatal("double != add-self")
	}
}

func TestAddMixed(t *testing.T) {
	g := Generator()
	for i := 0; i < 20; i++ {
		k1, k2 := ff.Random(), ff.Random()
		p1 := ScalarMul(&g, &k1)
		p2 := ScalarMul(&g, &k2)
		p2a := p2.ToAffine()
		mixed := p1
		mixed.AddMixed(&p2a)
		full := p1
		p2j := p2a.ToJac()
		full.AddAssign(&p2j)
		a, b := mixed.ToAffine(), full.ToAffine()
		if !a.Equal(&b) {
			t.Fatal("mixed add mismatch")
		}
	}
}

func TestAddInverse(t *testing.T) {
	g := Generator()
	k := ff.Random()
	p := ScalarMul(&g, &k)
	neg := p
	neg.NegAssign()
	p.AddAssign(&neg)
	if !p.IsInf() {
		t.Fatal("p + (-p) != infinity")
	}
}

func TestInfinityIdentity(t *testing.T) {
	g := Generator()
	var inf Jac
	p := g.ToJac()
	q := p
	q.AddAssign(&inf)
	a, b := p.ToAffine(), q.ToAffine()
	if !a.Equal(&b) {
		t.Fatal("p + inf != p")
	}
	infA := Infinity()
	q = inf
	q.AddMixed(&infA)
	if !q.IsInf() {
		t.Fatal("inf + inf != inf")
	}
}

func TestMSMMatchesNaive(t *testing.T) {
	g := Generator()
	for _, n := range []int{1, 3, 17, 100, 300} {
		pts := make([]Affine, n)
		scs := make([]ff.Element, n)
		var want Jac
		for i := 0; i < n; i++ {
			k := ff.NewElement(uint64(i*i + 1))
			pts[i] = ScalarMul(&g, &k).ToAffine()
			scs[i] = ff.Random()
			term := ScalarMul(&pts[i], &scs[i])
			want.AddAssign(&term)
		}
		got := MSM(pts, scs)
		a, b := got.ToAffine(), want.ToAffine()
		if !a.Equal(&b) {
			t.Fatalf("MSM mismatch at n=%d", n)
		}
	}
}

func TestMSMZeroScalars(t *testing.T) {
	g := Generator()
	pts := make([]Affine, 20)
	scs := make([]ff.Element, 20)
	for i := range pts {
		pts[i] = g
	}
	got := MSM(pts, scs)
	if !got.IsInf() {
		t.Fatal("MSM with all-zero scalars should be infinity")
	}
}

func TestMSMLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSM(make([]Affine, 2), make([]ff.Element, 3))
}

func TestBatchToAffine(t *testing.T) {
	g := Generator()
	jacs := make([]Jac, 10)
	for i := range jacs {
		if i == 4 {
			continue // leave one at infinity
		}
		k := ff.Random()
		jacs[i] = ScalarMul(&g, &k)
	}
	batch := BatchToAffine(jacs)
	for i := range jacs {
		want := jacs[i].ToAffine()
		if !batch[i].Equal(&want) {
			t.Fatalf("batch affine mismatch at %d", i)
		}
	}
	if !batch[4].Inf {
		t.Fatal("infinity not preserved")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	g := Generator()
	for i := 0; i < 20; i++ {
		k := ff.Random()
		p := ScalarMul(&g, &k).ToAffine()
		b := p.Bytes()
		var q Affine
		if err := q.SetBytes(b); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("compressed round trip failed")
		}
	}
	// Infinity round trip.
	inf := Infinity()
	b := inf.Bytes()
	var q Affine
	if err := q.SetBytes(b); err != nil {
		t.Fatal(err)
	}
	if !q.Inf {
		t.Fatal("infinity round trip failed")
	}
}

func TestSetBytesRejectsOffCurve(t *testing.T) {
	// Find an x with no square root by scanning.
	for x := int64(4); x < 100; x++ {
		xb := big.NewInt(x)
		fx := fpFromBig(xb)
		var rhs, tmp Fp
		tmp.square(&fx)
		rhs.mul(&tmp, &fx)
		three := fpFromUint64(3)
		rhs.add(&rhs, &three)
		var y Fp
		if !y.sqrt(&rhs) {
			var enc [32]byte
			copy(enc[32-len(xb.Bytes()):], xb.Bytes())
			var p Affine
			if err := p.SetBytes(enc); err == nil {
				t.Fatal("expected off-curve rejection")
			}
			return
		}
	}
	t.Skip("no off-curve x found in range")
}

func TestHashToCurve(t *testing.T) {
	seen := map[[32]byte]bool{}
	for i := 0; i < 10; i++ {
		p := HashToCurve("test", i)
		if !p.IsOnCurve() {
			t.Fatalf("hash-to-curve point %d off curve", i)
		}
		b := p.Bytes()
		if seen[b] {
			t.Fatalf("hash-to-curve collision at %d", i)
		}
		seen[b] = true
	}
	// Determinism.
	a, b := HashToCurve("t", 3), HashToCurve("t", 3)
	if !a.Equal(&b) {
		t.Fatal("hash-to-curve not deterministic")
	}
}

func BenchmarkMSM(b *testing.B) {
	g := Generator()
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		pts := make([]Affine, n)
		scs := make([]ff.Element, n)
		jacs := make([]Jac, n)
		for i := 0; i < n; i++ {
			k := ff.NewElement(uint64(i + 2))
			jacs[i] = ScalarMul(&g, &k)
			scs[i] = ff.Random()
		}
		aff := BatchToAffine(jacs)
		copy(pts, aff)
		name := map[int]string{1 << 8: "2^8", 1 << 10: "2^10", 1 << 12: "2^12"}[n]
		b.Run(name+"/glv", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MSM(pts, scs)
			}
		})
		b.Run(name+"/plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				msmPlain(pts, scs, nil)
			}
		})
	}
}

// BenchmarkFixedBaseMSM measures the precomputed-table commitment path
// (table-warm; the build is paid outside the timed loop) against the same
// inputs BenchmarkMSM feeds the generic kernel.
func BenchmarkFixedBaseMSM(b *testing.B) {
	g := Generator()
	for _, n := range []int{1 << 10, 1 << 12} {
		jacs := make([]Jac, n)
		scs := make([]ff.Element, n)
		var acc Jac
		for i := 0; i < n; i++ {
			acc.AddMixed(&g)
			jacs[i] = acc
			scs[i] = ff.Random()
		}
		basis := BatchToAffine(jacs)
		tab := NewFixedBaseTable(basis)
		if tab == nil {
			b.Fatal("table build declined")
		}
		b.Run(map[int]string{1 << 10: "2^10", 1 << 12: "2^12"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab.MSM(scs)
			}
		})
	}
}

func TestScalarMulLinearity(t *testing.T) {
	// (a+b)*P == a*P + b*P and (a*b)*P == a*(b*P).
	g := Generator()
	a, b := ff.Random(), ff.Random()
	var sum ff.Element
	sum.Add(&a, &b)
	lhs := ScalarMul(&g, &sum)
	pa, pb := ScalarMul(&g, &a), ScalarMul(&g, &b)
	pa.AddAssign(&pb)
	l, r := lhs.ToAffine(), pa.ToAffine()
	if !l.Equal(&r) {
		t.Fatal("(a+b)P != aP + bP")
	}
	var prod ff.Element
	prod.Mul(&a, &b)
	lhs2 := ScalarMul(&g, &prod)
	bp := ScalarMul(&g, &b)
	bpa := bp.ToAffine()
	rhs2 := ScalarMul(&bpa, &a)
	l2, r2 := lhs2.ToAffine(), rhs2.ToAffine()
	if !l2.Equal(&r2) {
		t.Fatal("(ab)P != a(bP)")
	}
}

func TestNegMatchesScalarMinusOne(t *testing.T) {
	g := Generator()
	var minusOne ff.Element
	one := ff.One()
	minusOne.Neg(&one)
	viaScalar := ScalarMul(&g, &minusOne)
	viaNeg := g.Neg()
	a, b := viaScalar.ToAffine(), viaNeg
	if !a.Equal(&b) {
		t.Fatal("(-1)*G != -G")
	}
}

// TestMSMParallelMatchesSerial checks that the chunked parallel MSM agrees
// with the single-chunk Pippenger evaluation, including scalars with all
// four limbs live (r-1) — the case a 32-bit big.Int.Bits() path would
// silently truncate.
func TestMSMParallelMatchesSerial(t *testing.T) {
	g := Generator()
	rMinus1 := new(big.Int).Sub(ff.Modulus(), big.NewInt(1))
	for _, n := range []int{300, 1024} {
		pts := make([]Affine, n)
		scs := make([]ff.Element, n)
		for i := 0; i < n; i++ {
			k := ff.NewElement(uint64(3*i + 2))
			pts[i] = ScalarMul(&g, &k).ToAffine()
			if i%5 == 0 {
				scs[i].SetBigInt(rMinus1) // exercise the top limbs
			} else {
				scs[i] = ff.Random()
			}
		}
		parallel.SetWorkers(1)
		serial := MSM(pts, scs)
		parallel.SetWorkers(4)
		par := MSM(pts, scs)
		parallel.SetWorkers(0)
		a, b := serial.ToAffine(), par.ToAffine()
		if !a.Equal(&b) {
			t.Fatalf("parallel MSM differs from serial at n=%d", n)
		}
	}
}

// naiveMSM is the double-and-add reference the signed-window kernel is
// cross-checked against.
func naiveMSM(pts []Affine, scs []ff.Element) Jac {
	var acc Jac
	for i := range pts {
		term := ScalarMul(&pts[i], &scs[i])
		acc.AddAssign(&term)
	}
	return acc
}

// TestMSMEdgeScalarsAndDuplicates stresses the signed-digit recoding and the
// batch-affine conflict queue: edge scalars (0, 1, r-1 — the value whose
// signed digits are almost all negative), heavy point duplication (every
// bucket add for a repeated point is a same-x conflict or a doubling), and
// lengths straddling the msmParallelMin window-parallel threshold.
func TestMSMEdgeScalarsAndDuplicates(t *testing.T) {
	g := Generator()
	rMinus1 := new(big.Int).Sub(ff.Modulus(), big.NewInt(1))
	for _, n := range []int{8, 255, 256, 257, 1024} {
		pts := make([]Affine, n)
		scs := make([]ff.Element, n)
		for i := 0; i < n; i++ {
			switch i % 4 {
			case 0:
				pts[i] = g // duplicates of the generator
			default:
				k := ff.NewElement(uint64(i%7 + 2)) // small pool → more duplicates
				pts[i] = ScalarMul(&g, &k).ToAffine()
			}
			switch i % 5 {
			case 0:
				scs[i] = ff.Zero()
			case 1:
				scs[i] = ff.One()
			case 2:
				scs[i].SetBigInt(rMinus1)
			default:
				scs[i] = ff.Random()
			}
		}
		want := naiveMSM(pts, scs)
		got := MSM(pts, scs)
		a, b := got.ToAffine(), want.ToAffine()
		if !a.Equal(&b) {
			t.Fatalf("MSM mismatch at n=%d", n)
		}
	}
}

// TestMSMLargeRandom drives the batch-affine bucket path (which only
// activates once the window is large enough for batching to amortize) and
// checks window-parallel scheduling against the serial result.
func TestMSMLargeRandom(t *testing.T) {
	g := Generator()
	n := 1 << 12
	pts := make([]Affine, n)
	scs := make([]ff.Element, n)
	jacs := make([]Jac, n)
	for i := 0; i < n; i++ {
		k := ff.NewElement(uint64(i + 2))
		jacs[i] = ScalarMul(&g, &k)
		scs[i] = ff.Random()
	}
	copy(pts, BatchToAffine(jacs))
	if half := 1 << uint(windowSize(n)-1); half < msmAffineMinBuckets {
		t.Fatalf("n=2^12 should select the batch-affine path (half=%d)", half)
	}
	parallel.SetWorkers(1)
	serial := MSM(pts, scs)
	parallel.SetWorkers(4)
	par := MSM(pts, scs)
	parallel.SetWorkers(0)
	// Cross-check a random subset relation instead of full naive (too slow):
	// MSM(pts, scs) - MSM(pts[1:], scs[1:]) == scs[0]*pts[0].
	rest := MSM(pts[1:], scs[1:])
	first := ScalarMul(&pts[0], &scs[0])
	rest.AddAssign(&first)
	a, b := serial.ToAffine(), par.ToAffine()
	if !a.Equal(&b) {
		t.Fatal("window-parallel MSM differs from serial")
	}
	c := rest.ToAffine()
	if !a.Equal(&c) {
		t.Fatal("MSM violates additivity split")
	}
}

// TestWindowSizeBudget pins the bucket-memory clamp: the window width must
// never imply a bucket array over maxBucketBytes, and must stay monotone
// non-decreasing in n up to the clamp.
func TestWindowSizeBudget(t *testing.T) {
	prev := 0
	for k := 0; k <= 24; k++ {
		c := windowSize(1 << uint(k))
		if c < 2 || c > 16 {
			t.Fatalf("windowSize(2^%d) = %d out of range", k, c)
		}
		if (72 << uint(c-1)) > maxBucketBytes {
			t.Fatalf("windowSize(2^%d) = %d violates bucket budget", k, c)
		}
		if c < prev {
			t.Fatalf("windowSize decreased at 2^%d", k)
		}
		prev = c
	}
	if windowSize(1<<24) != 13 {
		t.Fatalf("budget clamp should cap huge inputs at c=13, got %d", windowSize(1<<24))
	}
}

// TestBatchAdderAgainstJac feeds the same random op stream through the
// batch-affine adder and a plain Jacobian accumulator.
func TestBatchAdderAgainstJac(t *testing.T) {
	g := Generator()
	const nb = 8
	a := newBatchAdder(nb, nil)
	ref := make([]Jac, nb)
	pool := make([]Affine, 5)
	for i := range pool {
		k := ff.NewElement(uint64(i + 2))
		pool[i] = ScalarMul(&g, &k).ToAffine()
	}
	for i := 0; i < 4000; i++ {
		b := (i * 7) % nb
		p := pool[(i*13)%len(pool)]
		if i%11 == 0 {
			p = p.Neg() // exercise cancellations to infinity
		}
		a.add(b, p)
		ref[b].AddMixed(&p)
	}
	a.flushAll()
	for b := 0; b < nb; b++ {
		want := ref[b].ToAffine()
		if !a.buckets[b].Equal(&want) {
			t.Fatalf("batch adder bucket %d mismatch", b)
		}
	}
}
