package costmodel

import (
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/pcs"
)

var calib = Calibrate(8, 10)

// TestMSMBasisPairwiseDistinct is the regression test for the calibration
// bug where the MSM benchmark filled every slot with the same generator
// point (the "base" was never advanced), so eq. (1) costs were measured on
// a degenerate input.
func TestMSMBasisPairwiseDistinct(t *testing.T) {
	const n = 512
	pts := msmBasis(n)
	if len(pts) != n {
		t.Fatalf("got %d points, want %d", len(pts), n)
	}
	seen := make(map[[32]byte]int, n)
	for i, p := range pts {
		if p.IsZero() {
			t.Fatalf("point %d is the identity", i)
		}
		if !p.IsOnCurve() {
			t.Fatalf("point %d not on curve", i)
		}
		key := p.Bytes()
		if j, dup := seen[key]; dup {
			t.Fatalf("points %d and %d are equal", j, i)
		}
		seen[key] = i
	}
}

func TestCalibrationPopulated(t *testing.T) {
	if calib.FieldOp <= 0 {
		t.Fatal("field op cost not measured")
	}
	for k := 8; k <= 10; k++ {
		if calib.FFT[k] <= 0 || calib.MSM[k] <= 0 || calib.Lookup[k] <= 0 {
			t.Fatalf("missing measurement at k=%d", k)
		}
	}
}

func TestInterpolationExtrapolates(t *testing.T) {
	// k=14 is outside the measured range; the estimate must scale up from
	// the nearest measured point following n log n.
	t14 := calib.TimeFFT(14)
	t10 := calib.TimeFFT(10)
	if t14 <= t10 {
		t.Fatalf("FFT extrapolation not increasing: %v vs %v", t14, t10)
	}
	// Roughly (2^14·14)/(2^10·10) = 22.4x.
	ratio := t14 / t10
	if ratio < 10 || ratio > 40 {
		t.Fatalf("FFT extrapolation ratio %.1f implausible", ratio)
	}
	if calib.TimeMSM(14) <= calib.TimeMSM(10) {
		t.Fatal("MSM extrapolation not increasing")
	}
	if calib.TimeLookup(14) <= calib.TimeLookup(10) {
		t.Fatal("lookup extrapolation not increasing")
	}
}

func TestMeasuredValuesUsedDirectly(t *testing.T) {
	if calib.TimeFFT(9) != calib.FFT[9] {
		t.Fatal("measured point should be returned verbatim")
	}
}

func TestEstimateIncreasesWithEachFactor(t *testing.T) {
	base := Layout{K: 10, NumInstance: 1, NumAdvice: 10, NumFixed: 12,
		NumLookups: 4, NumPermCols: 11, DMax: 4, NumConstraints: 20,
		ConstraintOps: 300, Backend: pcs.KZG}
	t0 := calib.EstimateProvingTime(base)
	for name, mod := range map[string]func(Layout) Layout{
		"advice":  func(l Layout) Layout { l.NumAdvice *= 2; l.NumPermCols *= 2; return l },
		"lookups": func(l Layout) Layout { l.NumLookups *= 2; return l },
		"rows":    func(l Layout) Layout { l.K++; return l },
		"ops":     func(l Layout) Layout { l.ConstraintOps *= 2; return l },
	} {
		if calib.EstimateProvingTime(mod(base)) <= t0 {
			t.Fatalf("estimate not increasing in %s", name)
		}
	}
}

// TestEstimateProvingTimeDeterministic: the estimate is a fixed-order sum,
// so repeated calls return the same float. Summing the stage map in
// iteration order let the last bits vary between calls, which made
// Algorithm 1's stored plan cost differ from one compile to the next.
func TestEstimateProvingTimeDeterministic(t *testing.T) {
	for _, b := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		l := Layout{K: 11, NumInstance: 1, NumAdvice: 7, NumFixed: 13,
			NumLookups: 5, NumPermCols: 9, DMax: 5, NumConstraints: 23,
			ConstraintOps: 317, Backend: b}
		want := calib.EstimateProvingTime(l)
		for i := 0; i < 200; i++ {
			if got := calib.EstimateProvingTime(l); got != want {
				t.Fatalf("%v call %d: estimate %v, first call %v", b, i, got, want)
			}
		}
	}
}

func TestProofSizeIPABiggerThanKZG(t *testing.T) {
	l := Layout{K: 12, NumInstance: 1, NumAdvice: 10, NumFixed: 12,
		NumLookups: 4, NumPermCols: 11, DMax: 4, Backend: pcs.KZG}
	kzg := l.EstimateProofSize()
	l.Backend = pcs.IPA
	ipa := l.EstimateProofSize()
	if ipa <= kzg {
		t.Fatalf("IPA proof estimate %d not larger than KZG %d", ipa, kzg)
	}
}

// TestEmptyTableInterp pins the guard against hand-built partial
// calibrations: an empty (but non-nil) table must never price an operation
// family at zero — exactly the partial-file bug LoadOrCalibrate rejects —
// but fall back to a positive field-op-derived floor instead.
func TestEmptyTableInterp(t *testing.T) {
	empty := &Calibration{FFT: map[int]float64{}, MSM: map[int]float64{}, Lookup: map[int]float64{}}
	if v := empty.TimeFFT(10); v <= 0 {
		t.Fatalf("empty FFT table priced at %v, want positive floor", v)
	}
	if v := empty.TimeMSM(10); v <= 0 {
		t.Fatalf("empty MSM table priced at %v, want positive floor", v)
	}
	if v := empty.TimeLookup(10); v <= 0 {
		t.Fatalf("empty Lookup table priced at %v, want positive floor", v)
	}
	// With a calibrated FieldOp the floors scale with it; without one they
	// use a conservative default — either way never zero.
	withOp := &Calibration{FFT: map[int]float64{}, MSM: map[int]float64{}, Lookup: map[int]float64{}, FieldOp: 1e-8}
	if withOp.TimeMSM(10) <= empty.TimeMSM(10) {
		t.Fatal("floor does not scale with calibrated FieldOp")
	}
	// A measured table is still used verbatim.
	meas := &Calibration{FFT: map[int]float64{10: 1e-3}}
	if meas.TimeFFT(10) != 1e-3 {
		t.Fatal("measured value not returned verbatim")
	}
}

// TestCalibratedMSMTracksFullWidth is the regression test for the MSM
// calibration bias: the old benchmark used scalars 3i+7 (≤ 64 bits), which
// left every high signed-digit Pippenger window empty and measured a
// fraction of a real commitment MSM. The calibrated cost must now be
// within a factor bound of an independently timed full-width-scalar MSM.
func TestCalibratedMSMTracksFullWidth(t *testing.T) {
	const k = 9
	pts := msmBasis(1 << k)
	scs := make([]ff.Element, 1<<k)
	for i := range scs {
		scs[i] = ff.Random()
	}
	ref := medianSeconds(calibrationReps, func() { curve.MSM(pts, scs) })
	got := calib.MSM[k]
	if got <= 0 || ref <= 0 {
		t.Fatalf("degenerate timings: calibrated %v, reference %v", got, ref)
	}
	if ratio := got / ref; ratio < 0.3 || ratio > 3 {
		t.Fatalf("calibrated MSM cost %.3gs is %.2fx the full-width reference %.3gs (want within 0.3x..3x)",
			got, ratio, ref)
	}
}

func TestCalibrateMeasuresFixedBaseMSM(t *testing.T) {
	// Calibrate populates the table-warm fixed-base timings, and the warm
	// path must not be slower than the generic kernel by more than noise
	// (it does strictly less work: no Horner doublings, one reduction).
	if len(calib.MSMFixed) == 0 {
		t.Fatal("Calibrate left the msm_fixed table empty")
	}
	for k, fixed := range calib.MSMFixed {
		if fixed <= 0 {
			t.Fatalf("msm_fixed[%d] = %v, want positive", k, fixed)
		}
		if generic := calib.MSM[k]; generic > 0 && fixed > 2*generic {
			t.Fatalf("table-warm MSM at 2^%d (%.3gs) slower than 2x the generic kernel (%.3gs)",
				k, fixed, generic)
		}
	}
	if v := calib.TimeMSMFixed(9); v <= 0 {
		t.Fatalf("TimeMSMFixed(9) = %v, want positive", v)
	}
}

func TestTimeMSMFixedFallsBackToMSM(t *testing.T) {
	// Legacy calibration files carry no msm_fixed table; commitments must
	// then be priced at the generic MSM cost, not zero.
	legacy := &Calibration{MSM: map[int]float64{10: 2e-3}}
	if got, want := legacy.TimeMSMFixed(10), legacy.TimeMSM(10); got != want {
		t.Fatalf("fallback TimeMSMFixed = %v, want TimeMSM = %v", got, want)
	}
}
