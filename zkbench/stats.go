package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/zkml"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples; 0
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles by the same "exclusive"
// interpolation as Python's statistics.quantiles(xs, n=4), so the spreads
// this program prints match the ones computed over its results. With fewer
// than two samples both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// rankIndex is the 0-based index of the nearest-rank percentile level in n
// sorted samples.
func rankIndex(n int, level float64) int {
	idx := int(math.Ceil(level/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// nearestRank is the nearest-rank percentile of xs; 0 for no samples.
func nearestRank(xs []float64, level float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rankIndex(len(xs), level)]
}

// tailLevels are the percentiles a tail latency may be reported at,
// highest first.
var tailLevels = []float64{99, 95, 90, 75, 50}

// minTailBeyond is how many samples must rank above a percentile for it to
// count as a measured tail rather than a single outlier.
const minTailBeyond = 10

// tail is a tail latency: the sample at a nearest-rank percentile, with
// the level chosen and the number of samples that ranked above it.
type tail struct {
	Level  float64 `json:"level"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// chooseTail picks the highest level in tailLevels that has at least
// minTailBeyond samples beyond it. Runs too short to have ten samples above
// even the median report the median level with the count they have, so the
// printed level and count always say how much tail was measured.
func chooseTail(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	at := func(level float64) tail {
		idx := rankIndex(n, level)
		return tail{Level: level, Value: s[idx], N: n, Beyond: n - 1 - idx}
	}
	for _, level := range tailLevels {
		if t := at(level); t.Beyond >= minTailBeyond {
			return t
		}
	}
	return at(tailLevels[len(tailLevels)-1])
}

// tally counts attempted and failed operations. Every failed check of a
// run (an error, a non-200 response, a valid proof rejected, a tampered
// proof accepted, an output outside tolerance, set-up work on a warm path)
// is one failed operation. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// op counts one attempted operation and, if err is non-nil, one failure.
// It reports whether the operation succeeded.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, err.Error())
	}
	return false
}

// counts returns the attempted and failed totals.
func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// okRatio is the share of attempted operations that succeeded.
func (t *tally) okRatio() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(a-f) / float64(a)
}

// errTamperAccepted marks a tampered proof that verified.
var errTamperAccepted = errors.New("tampered proof accepted")

// tamperVerdict turns the outcome of importing and verifying a tampered
// proof into the check's error: nil when the proof was rejected as
// malformed or as failing verification, errTamperAccepted when it
// verified, and the unexpected error otherwise.
func tamperVerdict(err error) error {
	switch {
	case err == nil:
		return errTamperAccepted
	case errors.Is(err, zkml.ErrVerifyFailed), errors.Is(err, zkml.ErrMalformedProof):
		return nil
	default:
		return fmt.Errorf("tampered proof rejected with an unexpected error: %w", err)
	}
}

// tamper returns a copy of proof with one byte changed at a position drawn
// from pick (which returns a value in [0, n)).
func tamper(proof []byte, pick func(n int) int) []byte {
	out := append([]byte(nil), proof...)
	if len(out) == 0 {
		return out
	}
	i := pick(len(out))
	out[i] ^= byte(1 + pick(255))
	return out
}

// checkOutputs compares dequantized public outputs against the float
// reference: the lengths must agree and every value must lie within one
// quantization step.
func checkOutputs(got, want []float64, step float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d public outputs, float reference has %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > step || math.IsNaN(d) {
			return fmt.Errorf("output %d = %g, float reference %g (|err| %g > step %g)", i, got[i], want[i], d, step)
		}
	}
	return nil
}
