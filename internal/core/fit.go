package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

// FitConfig configures the calibration fitting sweep: which bundled model
// to prove, at which column budgets (each distinct feasible column count
// yields one physical layout; duplicates by row power are skipped), on
// which backends.
type FitConfig struct {
	Model    string
	Backends []pcs.Backend
	Cols     []int
	FP       fixedpoint.Params
	// Log, when non-nil, receives one progress line per sweep point (the
	// sweep proves real circuits and can take tens of seconds).
	Log func(format string, args ...any)
}

// DefaultFitConfig returns the standard sweep: mnist at three column
// budgets on both backends, small fixed-point parameters so the circuits
// stay small enough to prove quickly.
func DefaultFitConfig() FitConfig {
	return FitConfig{
		Model:    "mnist",
		Backends: []pcs.Backend{pcs.KZG, pcs.IPA},
		Cols:     []int{6, 10, 16},
		FP:       fixedpoint.Params{ScaleBits: 5, LookupBits: 9},
	}
}

// FitCalibration runs the trace-driven auto-calibration loop (ROADMAP item
// 3): it proves a small sweep of physical layouts with tracing enabled,
// hands the (layout, measured report) pairs to costmodel.FitFromSamples,
// and leaves c upgraded to a fitted v2 calibration. Returns the number of
// sweep points proved. Sweep points whose circuit cannot be built at the
// requested column budget are skipped; failing to prove one that built is
// an error (the fit would silently lose a backend otherwise).
func FitCalibration(c *costmodel.Calibration, cfg FitConfig) (int, error) {
	if c == nil {
		return 0, fmt.Errorf("core: fit requires a calibration")
	}
	if cfg.Model == "" {
		cfg.Model = "mnist"
	}
	if len(cfg.Backends) == 0 {
		cfg.Backends = []pcs.Backend{pcs.KZG, pcs.IPA}
	}
	if len(cfg.Cols) == 0 {
		cfg.Cols = []int{6, 10, 16}
	}
	if cfg.FP == (fixedpoint.Params{}) {
		cfg.FP = fixedpoint.Params{ScaleBits: 5, LookupBits: 9}
	}
	spec, err := model.Get(cfg.Model)
	if err != nil {
		return 0, err
	}
	g := spec.Build()
	in := spec.Input(1)

	var samples []costmodel.Sample
	for _, backend := range cfg.Backends {
		seenK := map[int]bool{}
		for _, cols := range cfg.Cols {
			gcfg := FixedGadgetConfig(cols, cfg.FP)
			plan, err := PlanFor(g, in, gcfg, backend, c)
			if err != nil {
				continue // infeasible at this column budget
			}
			if seenK[plan.K] {
				continue // same row power, no new information
			}
			seenK[plan.K] = true
			keys, err := plan.Setup()
			if err != nil {
				return len(samples), fmt.Errorf("core: fit sweep %s cols=%d keygen: %w", backend, cols, err)
			}
			rep, err := traceProve(plan, keys, in)
			if err != nil {
				return len(samples), fmt.Errorf("core: fit sweep %s cols=%d prove: %w", backend, cols, err)
			}
			samples = append(samples, costmodel.Sample{Layout: plan.Layout, Report: rep})
			if cfg.Log != nil {
				cfg.Log("fit: %s cols=%d 2^%d rows proved in %.2fs", backend, cols, plan.K, rep.TotalSeconds)
			}
		}
	}
	if err := c.FitFromSamples(samples); err != nil {
		return len(samples), err
	}
	return len(samples), nil
}

// traceProve synthesizes the plan's circuit for an input and proves it with
// stage tracing, returning the report a fit sample measures.
func traceProve(plan *Plan, keys *Keys, in *model.Input) (*obs.Report, error) {
	art, err := plan.Synthesize(in)
	if err != nil {
		return nil, err
	}
	trace := obs.NewTrace()
	if _, err := plonkish.ProveTraced(keys.PK, art.Instance, art.Witness, trace); err != nil {
		return nil, err
	}
	return trace.Report(), nil
}
