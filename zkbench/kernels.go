package main

import (
	"math/rand"
	"time"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/poly"
)

// kernelReps is how many timed repetitions each kernel row takes; rows
// report the median with quartiles.
const kernelReps = 7

// timeReps times fn kernelReps times, returning per-call nanoseconds for
// each repetition divided by perCall.
func timeReps(perCall int, fn func()) []float64 {
	out := make([]float64, kernelReps)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = float64(time.Since(start).Nanoseconds()) / float64(perCall)
	}
	return out
}

// randomScalars draws n full-width field elements, so MSM windows fill as
// they do for real commitments.
func randomScalars(r *rand.Rand, n int) []ff.Element {
	out := make([]ff.Element, n)
	var b [32]byte
	for i := range out {
		r.Read(b[:])
		out[i].SetBytes(b[:])
	}
	return out
}

// distinctPoints returns n distinct curve points: consecutive multiples
// of the generator.
func distinctPoints(n int) []curve.Affine {
	g := curve.Generator()
	jac := make([]curve.Jac, n)
	acc := g.ToJac()
	for i := range jac {
		jac[i] = acc
		acc.AddMixed(&g)
	}
	return curve.BatchToAffine(jac)
}

// kernelRows measures the field multiply, the FFT at the extended domain
// size 2^extK, and the generic and fixed-base MSMs at the circuit size
// 2^k, recording each as a median with quartiles in nanoseconds.
func kernelRows(ms *metrics, r *rand.Rand, k, extK int) {
	set := func(name string, xs []float64) {
		q1, q3 := quartiles(xs)
		ms.set(name, "ns", median(xs))
		ms.set(name+".q1", "ns", q1)
		ms.set(name+".q3", "ns", q3)
	}

	const muls = 1 << 20
	xs := randomScalars(r, 2)
	x, y := xs[0], xs[1]
	set("ff.mul_ns", timeReps(muls, func() {
		for i := 0; i < muls; i++ {
			x.Mul(&x, &y)
		}
		mulSink = x
	}))

	d := poly.NewDomain(1 << uint(extK))
	v := randomScalars(r, d.N)
	set("poly.fft_ns", timeReps(1, func() { d.FFT(v) }))

	n := 1 << uint(k)
	pts := distinctPoints(n)
	scs := randomScalars(r, n)
	set("curve.msm_ns", timeReps(1, func() { curve.MSM(pts, scs) }))
	if tab := curve.NewFixedBaseTable(pts); tab != nil {
		set("curve.fixed_msm_ns", timeReps(1, func() { tab.MSM(scs) }))
	} else {
		set("curve.fixed_msm_ns", nil) // over the table memory budget
	}
}

// mulSink keeps the timed multiply chain observable.
var mulSink ff.Element
