package curve

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"

	"repro/internal/ff"
)

// FuzzPointSetBytes feeds arbitrary 32-byte strings to the compressed-point
// decoder. Decoding must never panic; every accepted input must decode to a
// point on the curve and re-encode byte-identically (the wire format is
// injective: flag bits are canonical, infinity is exactly 0x40 || 0^31, and
// x coordinates are reduced).
// FuzzGLVDecompose feeds arbitrary 32-byte scalars through the GLV
// decomposition and checks the two invariants the MSM kernels rely on:
// k1 + λ·k2 ≡ k (mod r) exactly, and both halves fit the glvHalfBits size
// bound the window schedules are sized for. The scalar also drives a small
// MSM with duplicated points through the GLV kernel and the plain kernel;
// the group elements must match.
func FuzzGLVDecompose(f *testing.F) {
	r := ff.Modulus()
	seed := func(v *big.Int) {
		var b [32]byte
		v.FillBytes(b[:])
		f.Add(b[:])
	}
	seed(big.NewInt(0))
	seed(big.NewInt(1))
	seed(new(big.Int).Sub(r, big.NewInt(1)))
	seed(GLVLambda())
	seed(new(big.Int).Sub(r, GLVLambda()))
	var all [32]byte
	for i := range all {
		all[i] = 0xff
	}
	f.Add(all[:])

	g := Generator()
	two := ff.NewElement(2)
	h := ScalarMul(&g, &two).ToAffine()
	pts := []Affine{g, h, g, h, g, g, h, g} // duplicates on purpose
	lambda := GLVLambda()

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 32 {
			return
		}
		var k ff.Element
		k.SetBigInt(new(big.Int).Mod(new(big.Int).SetBytes(data), r))
		k1, k2 := GLVDecompose(&k)
		got := new(big.Int).Mul(lambda, k2)
		got.Add(got, k1)
		got.Mod(got, r)
		if got.Cmp(k.BigInt()) != 0 {
			t.Fatalf("k1 + λ·k2 = %v mod r, want %v", got, k.BigInt())
		}
		if k1.BitLen() > glvHalfBits || k2.BitLen() > glvHalfBits {
			t.Fatalf("half sizes %d/%d exceed %d bits for k=%v",
				k1.BitLen(), k2.BitLen(), glvHalfBits, k.BigInt())
		}

		// Derive the remaining scalars from the fuzz input so the MSM check
		// sees varied neighbors around the interesting scalar.
		scs := make([]ff.Element, len(pts))
		scs[0] = k
		for i := 1; i < len(scs); i++ {
			v := binary.BigEndian.Uint64(data[(i*4)%24:]) + uint64(i)
			scs[i] = ff.NewElement(v)
			scs[i].Mul(&scs[i], &k)
			inc := ff.NewElement(uint64(i))
			scs[i].Add(&scs[i], &inc)
		}
		glv := msmGLV(pts, scs, nil).ToAffine()
		plain := msmPlain(pts, scs, nil).ToAffine()
		if !glv.Equal(&plain) {
			t.Fatalf("GLV MSM differs from plain kernel for k=%v", k.BigInt())
		}
	})
}

func FuzzPointSetBytes(f *testing.F) {
	g := Generator()
	gb := g.Bytes()
	f.Add(gb[:])
	var inf [32]byte
	inf[0] = 0x40
	f.Add(inf[:])
	f.Add(make([]byte, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 32 {
			return
		}
		var b [32]byte
		copy(b[:], data)
		var p Affine
		if err := p.SetBytes(b); err != nil {
			return
		}
		if !p.Inf && !p.IsOnCurve() {
			t.Fatalf("decoded off-curve point from %x", b)
		}
		round := p.Bytes()
		if !bytes.Equal(round[:], b[:]) {
			t.Fatalf("non-canonical encoding accepted: %x decodes, re-encodes as %x", b, round)
		}
	})
}
