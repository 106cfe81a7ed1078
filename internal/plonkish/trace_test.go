package plonkish

import (
	"bytes"
	"crypto/sha256"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/pcs"
)

// TestTracedProofBytesIdentical proves the same circuit with the same seeded
// randomness once untraced and once traced, and requires byte-identical
// proofs: observability must never perturb the transcript, the blinding
// draws, or any committed value.
func TestTracedProofBytesIdentical(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			pk, vk := setup(t, backend)
			defer ff.SetRandomSource(nil)

			ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("trace-test"))})
			plain, err := Prove(pk, testInstance(24), testWitness(false, false, false))
			if err != nil {
				t.Fatal(err)
			}
			ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("trace-test"))})
			trace := obs.NewTrace()
			traced, err := ProveTraced(pk, testInstance(24), testWitness(false, false, false), trace)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, testInstance(24), traced); err != nil {
				t.Fatalf("traced proof does not verify: %v", err)
			}

			pb, err := plain.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			tb, err := traced.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb, tb) {
				t.Fatal("proof bytes differ between traced and untraced runs")
			}
		})
	}
}

// TestTraceReportShape checks the report of a real prove: all five stages in
// execution order, stage times summing to roughly the total (the stages are
// contiguous, so only clock-read gaps separate them), and kernel counters
// that actually saw the prover's FFTs, MSMs, and openings.
func TestTraceReportShape(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			pk, _ := setup(t, backend)
			trace := obs.NewTrace()
			if _, err := ProveTraced(pk, testInstance(24), testWitness(false, false, false), trace); err != nil {
				t.Fatal(err)
			}
			r := trace.Report()
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, st := range r.Stages {
				sum += st.Seconds
			}
			// Stage transitions are back-to-back; allow 5% of total plus a
			// small floor for clock granularity on very fast proves.
			if slack := 0.05*r.TotalSeconds + 1e-3; math.Abs(sum-r.TotalSeconds) > slack {
				t.Fatalf("stage sum %v vs total %v exceeds slack %v", sum, r.TotalSeconds, slack)
			}
			if r.FFTCount == 0 || r.MSMCount == 0 {
				t.Fatalf("kernel counters empty: fft=%d msm=%d", r.FFTCount, r.MSMCount)
			}
			if r.Opens == 0 {
				t.Fatalf("no PCS openings recorded")
			}
		})
	}
}

// TestConcurrentTracedProves runs two traced proves and one untraced prove
// at once. Each trace must carry exactly a solo traced prove's kernel
// counts (nothing leaks between concurrent calls), the traced counts plus
// the untraced prove's own MSMs must account for the whole delta of the
// process MSM total, and every proof must verify. The 256-row domain keeps
// the commitments above the fixed-base table's minimum length, so the
// table path is counted too.
func TestConcurrentTracedProves(t *testing.T) {
	const n = 256
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			pk, vk, err := Setup(testCircuit(), n, testFixed(n), backend)
			if err != nil {
				t.Fatal(err)
			}
			solo := obs.NewTrace()
			if _, err := ProveTraced(pk, testInstance(24), testWitness(false, false, false), solo); err != nil {
				t.Fatal(err)
			}
			want := solo.Report()
			if want.FixedMSMCount == 0 {
				t.Fatal("no commitment ran through the fixed-base table; the test would not cover it")
			}

			traces := []*obs.Trace{obs.NewTrace(), obs.NewTrace(), nil}
			proofs := make([]*Proof, len(traces))
			errs := make([]error, len(traces))
			before := curve.MSMCalls()
			var wg sync.WaitGroup
			for i := range traces {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					proofs[i], errs[i] = ProveTraced(pk, testInstance(24), testWitness(false, false, false), traces[i])
				}(i)
			}
			wg.Wait()
			delta := curve.MSMCalls() - before

			sum := want.MSMCount // the untraced prove's own MSMs
			for i, tr := range traces {
				if errs[i] != nil {
					t.Fatalf("prove %d: %v", i, errs[i])
				}
				if err := Verify(vk, testInstance(24), proofs[i]); err != nil {
					t.Fatalf("prove %d: proof does not verify: %v", i, err)
				}
				if tr == nil {
					continue
				}
				got := tr.Report()
				sum += got.MSMCount
				for _, c := range []struct {
					name      string
					got, want any
				}{
					{"msm_by_size", got.MSMBySize, want.MSMBySize},
					{"fixed_msm_by_size", got.FixedMSMBySize, want.FixedMSMBySize},
					{"glv_splits", got.GLVSplits, want.GLVSplits},
					{"fft_by_size", got.FFTBySize, want.FFTBySize},
					{"opens", got.Opens, want.Opens},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Fatalf("trace %d: %s = %v, solo prove has %v", i, c.name, c.got, c.want)
					}
				}
			}
			if delta != sum {
				t.Fatalf("process MSM total moved by %d; traces plus the untraced prove account for %d", delta, sum)
			}
		})
	}
}
