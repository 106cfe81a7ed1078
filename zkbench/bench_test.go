package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"testing"

	"repro/zkml"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestChooseTail(t *testing.T) {
	cases := []struct {
		n      int
		level  float64
		value  float64
		beyond int
	}{
		{n: 1, level: 50, value: 1, beyond: 0},
		{n: 8, level: 50, value: 4, beyond: 4},     // too few for any level: median level, count says so
		{n: 30, level: 50, value: 15, beyond: 15},  // p75 has only 7 beyond
		{n: 100, level: 90, value: 90, beyond: 10}, // exactly ten beyond p90
		{n: 200, level: 95, value: 190, beyond: 10},
		{n: 1000, level: 99, value: 990, beyond: 10},
	}
	for _, c := range cases {
		got := chooseTail(seq(c.n))
		if got.Level != c.level || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want level %g value %g beyond %d", c.n, got, c.level, c.value, c.beyond)
		}
	}
	if got := chooseTail(nil); got != (tail{}) {
		t.Errorf("no samples: got %+v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %g, %g; want 0.75, 2.25", q1, q3)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %g", m)
	}
}

// TestFailAccountingPlantedTamper plants a verifier that accepts every
// proof: the tampered copy it accepts must count as a failure, so the run
// reports fewer successes than attempts and is not correct.
func TestFailAccountingPlantedTamper(t *testing.T) {
	acceptAll := func([]byte) error { return nil }
	proof := []byte("a proof of some length")
	var tl tally
	tl.op(nil) // prove
	tl.op(acceptAll(proof))
	bad := tamper(proof, func(n int) int { return n / 2 })
	if string(bad) == string(proof) {
		t.Fatal("tamper left the proof unchanged")
	}
	if tl.op(tamperVerdict(acceptAll(bad))) {
		t.Fatal("accepted tampered proof counted as a success")
	}
	if a, f := tl.counts(); a != 3 || f != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", a, f)
	}
	if r := tl.okRatio(); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("ok ratio %g, want 2/3", r)
	}
	if res := emit(newMetrics(), &tl, nil); res.Correct || res.Failed != 1 || res.Attempted != 3 {
		t.Errorf("result %+v, want incorrect with 1 of 3 failed", res)
	}

	// Rejections with the typed errors pass; anything else is a failure.
	for _, err := range []error{
		fmt.Errorf("check: %w", zkml.ErrVerifyFailed),
		fmt.Errorf("decode: %w", zkml.ErrMalformedProof),
	} {
		if v := tamperVerdict(err); v != nil {
			t.Errorf("tamperVerdict(%v) = %v, want nil", err, v)
		}
	}
	if v := tamperVerdict(errors.New("disk on fire")); v == nil || errors.Is(v, errTamperAccepted) {
		t.Errorf("untyped rejection: got %v", v)
	}

	// The daemon's replies.
	if err := tamperReplyVerdict(http.StatusOK, true); !errors.Is(err, errTamperAccepted) {
		t.Errorf("valid:true for a tampered proof: got %v", err)
	}
	for _, r := range []struct {
		status int
		valid  bool
	}{{http.StatusBadRequest, false}, {http.StatusOK, false}} {
		if err := tamperReplyVerdict(r.status, r.valid); err != nil {
			t.Errorf("reply %d valid=%v: got %v, want a rejection", r.status, r.valid, err)
		}
	}
	if err := tamperReplyVerdict(http.StatusInternalServerError, false); err == nil {
		t.Error("a 500 reply counted as a rejection")
	}
}

func TestCheckOutputs(t *testing.T) {
	step := quantStep(5)
	if err := checkOutputs([]float64{0.5, -0.25}, []float64{0.5 + step/2, -0.25 - step}, step); err != nil {
		t.Errorf("within one step: %v", err)
	}
	if err := checkOutputs([]float64{0.5}, []float64{0.5 + 1.01*step}, step); err == nil {
		t.Error("beyond one step accepted")
	}
	if err := checkOutputs([]float64{0.5}, []float64{0.5, 0.5}, step); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := checkOutputs([]float64{math.NaN()}, []float64{0}, step); err == nil {
		t.Error("NaN output accepted")
	}
}

func TestPlanIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans", "w.json")
	plans := []planID{{Circuit: "mnist", K: 11, Cols: 8, Gadgets: "{Dot:bias}"}, {Circuit: "dlrm", K: 10, Cols: 6, Gadgets: "{}"}}
	if err := checkPlanRecord(path, plans); err != nil {
		t.Fatalf("first run writes the record: %v", err)
	}
	if err := checkPlanRecord(path, plans); err != nil {
		t.Fatalf("same plans: %v", err)
	}
	for name, mutate := range map[string]func(p []planID){
		"k":       func(p []planID) { p[0].K = 12 },
		"cols":    func(p []planID) { p[1].Cols = 7 },
		"gadgets": func(p []planID) { p[0].Gadgets = "{Dot:sum}" },
	} {
		changed := append([]planID(nil), plans...)
		mutate(changed)
		if err := checkPlanRecord(path, changed); err == nil {
			t.Errorf("changed %s accepted", name)
		}
	}
	if err := checkPlanRecord(path, plans[:1]); err == nil {
		t.Error("a missing circuit accepted")
	}
}
