package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/zkml"
)

// libWorkload is an in-process workload: one closed-loop caller proving a
// bundled model through the public API.
type libWorkload struct {
	model   string
	backend zkml.Backend
}

// options are the CI circuit parameters both library workloads compile at.
func (w libWorkload) options(calib *costmodel.Calibration) zkml.Options {
	return zkml.Options{Backend: w.backend, ScaleBits: 5, LookupBits: 9, MinCols: 6, MaxCols: 16, Calibration: calib}
}

// tamperEvery sends every Nth proof a second time with one byte changed.
const tamperEvery = 4

// verifyReps is how many times each proof is imported and verified: a
// verify is short enough that one sample per prove leaves its median noisy.
const verifyReps = 3

// setupSamples is how many times a run sets up: fresh-process compiles for
// the library workloads, daemon starts for serve-mix.
const setupSamples = 3

// setupReport is what a set-up child prints: the wall time of Compile +
// Save in a fresh process, and the plan it chose.
type setupReport struct {
	Seconds float64 `json:"setup_s"`
	Plan    planID  `json:"plan"`
}

// compileAndSave compiles the workload's model and saves it into dir.
func compileAndSave(w libWorkload, calib *costmodel.Calibration, dir string) (*zkml.System, time.Duration, error) {
	spec, err := zkml.Model(w.model)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sys, err := zkml.Compile(spec.Build(), spec.Input(1), w.options(calib))
	if err != nil {
		return nil, 0, fmt.Errorf("compile %s: %w", w.model, err)
	}
	if _, err := sys.Save(dir); err != nil {
		return nil, 0, fmt.Errorf("save %s: %w", w.model, err)
	}
	return sys, time.Since(start), nil
}

// setupChild is the body of a set-up child process.
func setupChild(w libWorkload, calib *costmodel.Calibration, dir string) error {
	sys, d, err := compileAndSave(w, calib, dir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(setupReport{Seconds: d.Seconds(), Plan: planIDOf(sys.Plan)})
}

// spawnSetup runs one set-up child: this program re-executed with
// -setup-child, compiling into its own store directory.
func spawnSetup(a args, dir string) (setupReport, error) {
	self, err := os.Executable()
	if err != nil {
		return setupReport{}, err
	}
	cmd := exec.Command(self, "-workload", a.workload, "-calibration", a.calibration, "-setup-child", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupReport{}, fmt.Errorf("set-up child: %w", err)
	}
	var rep setupReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return setupReport{}, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	return rep, nil
}

// floatReference runs the independent float interpreter and flattens the
// declared outputs.
func floatReference(g *model.Graph, in *model.Input) ([]float64, error) {
	outs, err := g.OutputsFloat(in)
	if err != nil {
		return nil, err
	}
	var flat []float64
	for _, t := range outs {
		flat = append(flat, t.Data...)
	}
	return flat, nil
}

// quantStep is one quantization step at the given scale.
func quantStep(scaleBits int) float64 { return math.Ldexp(1, -scaleBits) }

// runLibrary is the untraced run of a library workload: set-up timed in
// fresh processes, then a closed loop of prove, export, import and verify
// on a verifier-only system.
func runLibrary(w libWorkload, a args, calib *costmodel.Calibration) (*metrics, *tally, []string, error) {
	t := &tally{}
	ms := newMetrics()
	var notes []string
	opts := w.options(calib)

	// Set-up: fresh-process compiles; this process is fresh too until its
	// own compile, which becomes the last sample and the proving system.
	var setups []float64
	var plans []planID
	for i := 1; i < setupSamples; i++ {
		rep, err := spawnSetup(a, filepath.Join(a.runDir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, rep.Seconds)
		plans = append(plans, rep.Plan)
	}
	store := filepath.Join(a.runDir, "store")
	sys, d, err := compileAndSave(w, calib, store)
	if err != nil {
		return nil, nil, nil, err
	}
	setups = append(setups, d.Seconds())
	plans = append(plans, planIDOf(sys.Plan))
	for _, p := range plans[1:] {
		t.op(samePlans(plans[:1], []planID{p}))
	}
	t.op(checkPlanRecord(a.planRecord(), plans[:1]))
	notes = append(notes, "plan: "+sys.Describe())

	spec, err := zkml.Model(w.model)
	if err != nil {
		return nil, nil, nil, err
	}
	g := spec.Build()
	verifier, err := zkml.LoadVerifier(store, g, spec.Input(1), opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("load verifier: %w", err)
	}
	step := quantStep(opts.ScaleBits)

	r := rand.New(rand.NewSource(a.seed))
	var proveS, verifyS, sizes, iters []float64
	budget := time.Duration(a.seconds) * time.Second
	before := pcs.SetupWorkSnapshot()
	rs := sampleRSS("self")
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if el := time.Since(start); i > 0 && el+last > budget {
			break
		}
		iterStart := time.Now()
		in := spec.Input(r.Int63())
		want, err := floatReference(g, in)
		if !t.op(err) {
			continue
		}
		t0 := time.Now()
		proof, err := sys.Prove(in)
		pd := time.Since(t0)
		if !t.op(err) {
			continue
		}
		data, err := sys.ExportProof(proof)
		if !t.op(err) {
			continue
		}
		var imported *zkml.Proof
		var vds []float64
		for v := 0; v < verifyReps && err == nil; v++ {
			t0 = time.Now()
			imported, err = verifier.ImportProof(data)
			if err == nil {
				err = verifier.Verify(imported)
			}
			vds = append(vds, time.Since(t0).Seconds())
			t.op(err)
		}
		if err != nil || !t.op(checkOutputs(verifier.Outputs(imported), want, step)) {
			continue
		}
		proveS = append(proveS, pd.Seconds())
		verifyS = append(verifyS, vds...)
		sizes = append(sizes, float64(len(data)))
		if i%tamperEvery == tamperEvery-1 {
			bad := tamper(data, r.Intn)
			p, err := verifier.ImportProof(bad)
			if err == nil {
				err = verifier.Verify(p)
			}
			t.op(tamperVerdict(err))
		}
		last = time.Since(iterStart)
		iters = append(iters, last.Seconds())
	}
	rss := rs.finish()
	t.op(checkWarm(pcs.SetupWorkSnapshot().Sub(before)))
	peak, err := peakRSSMiB("self")
	if err != nil {
		return nil, nil, nil, err
	}

	tl := chooseTail(proveS)
	ms.set("setup_s", "s", median(setups))
	ms.set("prove_s_p50", "s", median(proveS))
	ms.set("prove_s_tail", "s", tl.Value)
	ms.set("verify_s_p50", "s", median(verifyS))
	ms.set("proves_per_s", "1/s", 1/median(iters))
	ms.set("proof_bytes", "B", median(sizes))
	ms.set("rss_p50_mib", "MiB", median(rss))
	ms.set("ok_ratio", "1", t.okRatio())
	notes = append(notes, fmt.Sprintf("prove_s_tail: p%g of %d samples, %d beyond", tl.Level, tl.N, tl.Beyond))
	notes = append(notes, fmt.Sprintf("set-up samples (s): %.3f", setups))
	notes = append(notes, fmt.Sprintf("prove samples (s): %.3f", proveS))
	vq1, vq3 := quartiles(verifyS)
	notes = append(notes, fmt.Sprintf("verify samples: %d, q1 %.4f s, median %.4f s, q3 %.4f s", len(verifyS), vq1, median(verifyS), vq3))
	notes = append(notes, rssNote(rss, peak))
	return ms, t, notes, nil
}

// runLibraryTraced is the traced run of a library workload: each layer's
// public entry point is called separately and timed from here, and the
// kernels are measured at the plan's own sizes.
func runLibraryTraced(w libWorkload, a args, calib *costmodel.Calibration, tr *tracer) (*metrics, *tally, []string, error) {
	t := &tally{}
	ms := newMetrics()
	var notes []string
	opts := w.options(calib)
	spec, err := zkml.Model(w.model)
	if err != nil {
		return nil, nil, nil, err
	}
	g, sample := spec.Build(), spec.Input(1)

	// core: Algorithm 1, then cold keygen.
	copt := core.DefaultOptions(w.backend, fixedpoint.Params{ScaleBits: opts.ScaleBits, LookupBits: opts.LookupBits})
	copt.MinCols, copt.MaxCols, copt.Calibration = opts.MinCols, opts.MaxCols, calib
	t0 := time.Now()
	plan, _, stats, err := core.Optimize(g, sample, copt)
	if err != nil {
		return nil, nil, nil, err
	}
	tr.add(0, 0, 0, "core.Optimize", t0, time.Now())
	art, err := plan.Synthesize(sample)
	if err != nil {
		return nil, nil, nil, err
	}
	t0 = time.Now()
	if _, _, err := plonkish.Setup(art.CS, art.N, art.Fixed, w.backend); err != nil {
		return nil, nil, nil, err
	}
	tr.add(0, 0, 0, "plonkish.Setup", t0, time.Now())
	ms.set("core.optimize_s", "s", stats.Duration.Seconds())
	ms.set("core.candidates", "count", float64(stats.Evaluated))

	// zkml: the artifact store.
	store := filepath.Join(a.runDir, "store")
	t0 = time.Now()
	sys, err := zkml.Compile(g, sample, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	tr.add(0, 0, 0, "zkml.Compile", t0, time.Now())
	t.op(samePlans([]planID{planIDOf(plan)}, []planID{planIDOf(sys.Plan)}))
	t.op(checkPlanRecord(a.planRecord(), []planID{planIDOf(plan)}))
	if err := storeMetrics(ms, tr, sys, store, g, sample, opts); err != nil {
		return nil, nil, nil, err
	}
	verifier, err := zkml.LoadVerifier(store, g, sample, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	planMetrics(ms, sys.Plan)
	notes = append(notes, "plan: "+sys.Describe())

	// The request loop: synthesize, prove (traced and untraced requests
	// alternate, for the tracing overhead), export and import, verify.
	r := rand.New(rand.NewSource(a.seed))
	step := quantStep(opts.ScaleBits)
	budget := time.Duration(a.seconds) * time.Second
	var reports []*obs.Report
	var traced, untraced, stageRatio []float64
	before := pcs.SetupWorkSnapshot()
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		// At least one traced and one untraced request, for the overhead.
		if i > 1 && time.Since(start)+last > budget {
			break
		}
		req := i + 1
		reqID := tr.id()
		reqStart := time.Now()
		in := spec.Input(r.Int63())

		t0 := time.Now()
		art, err := sys.Plan.Synthesize(in)
		if !t.op(err) {
			continue
		}
		tr.add(0, reqID, req, "model.Synthesize", t0, time.Now())

		// ProveTraced with a nil trace is the untraced Prove.
		proveID := tr.id()
		var trace *obs.Trace
		if i%2 == 0 {
			trace = obs.NewTrace()
		}
		t0 = time.Now()
		pp, err := plonkish.ProveTraced(sys.Keys.PK, art.Instance, art.Witness, trace)
		t1 := time.Now()
		if !t.op(err) {
			continue
		}
		name := "plonkish.Prove"
		if trace != nil {
			name = "plonkish.ProveTraced"
		}
		ps := tr.add(proveID, reqID, req, name, t0, t1)
		if trace != nil {
			rep := trace.Report()
			traced = append(traced, ps.dur())
			reports = append(reports, rep)
			// obs.Report carries stage durations only; lay them end to end
			// from the prove span's start.
			at := t0
			sum := 0.0
			for _, st := range rep.Stages {
				d := time.Duration(st.Seconds * 1e9)
				tr.add(0, proveID, req, "plonkish.stage."+st.Stage, at, at.Add(d))
				at = at.Add(d)
				sum += st.Seconds
			}
			stageRatio = append(stageRatio, sum/ps.dur())
			if sum > ps.dur()+1e-3 {
				t.op(fmt.Errorf("stage times sum to %.4fs, over the %.4fs prove span", sum, ps.dur()))
			}
		} else {
			untraced = append(untraced, ps.dur())
		}

		t0 = time.Now()
		data, err := sys.ExportProof(&zkml.Proof{Proof: pp, Instance: art.Instance})
		var proof *zkml.Proof
		if err == nil {
			proof, err = verifier.ImportProof(data)
		}
		if !t.op(err) {
			continue
		}
		tr.add(0, reqID, req, "zkml.ExportImport", t0, time.Now())
		t0 = time.Now()
		err = plonkish.Verify(verifier.Keys.VK, proof.Instance, proof.Proof)
		t1 = time.Now()
		if !t.op(err) {
			continue
		}
		tr.add(0, reqID, req, "plonkish.Verify", t0, t1)
		rs := tr.add(reqID, 0, req, "request", reqStart, t1)
		last = time.Since(reqStart)

		want, err := floatReference(g, in)
		if t.op(err) {
			t.op(checkOutputs(verifier.Outputs(proof), want, step))
		}
		t.op(checkCoverage(tr, rs))
		if i%tamperEvery == tamperEvery-1 {
			bad := tamper(data, r.Intn)
			p, err := verifier.ImportProof(bad)
			if err == nil {
				err = verifier.Verify(p)
			}
			t.op(tamperVerdict(err))
		}
	}
	work := pcs.SetupWorkSnapshot().Sub(before)
	t.op(checkWarm(work))

	ms.set("model.synthesize_s", "s", median(tr.durations("model.Synthesize")))
	ms.set("plonkish.keygen_s", "s", median(tr.durations("plonkish.Setup")))
	stageMetrics(ms, reports, sys.Plan)
	ms.set("plonkish.verify_s", "s", median(tr.durations("plonkish.Verify")))
	ms.set("plonkish.stage_sum_ratio", "1", median(stageRatio))
	ms.set("pcs.commit_table_builds", "count", float64(work.CommitTableBuilds))
	ms.set("pcs.commit_table_hits", "count", float64(work.CommitTableHits))
	ms.set("pcs.warm_setup_work", "count", float64(nonHitWork(work)))
	ms.set("obs.trace_overhead", "1", median(traced)/median(untraced)-1)

	kernelRows(ms, r, sys.Plan.K, sys.Plan.Layout.ExtK())
	ms.set("curve.fixed_msm_s_computed", "s", ms.m["curve.fixed_msm_count"].Value*ms.m["curve.fixed_msm_ns"].Value/1e9)
	daemonMetricsAbsent(ms)
	notes = append(notes, fmt.Sprintf("traced requests: %d traced proves, %d untraced", len(traced), len(untraced)))
	return ms, t, notes, nil
}

// storeMetrics times the artifact store calls: save, full load, and
// verifier-only load.
func storeMetrics(ms *metrics, tr *tracer, sys *zkml.System, store string, g *zkml.Graph, sample *zkml.Input, opts zkml.Options) error {
	t0 := time.Now()
	path, err := sys.Save(store)
	if err != nil {
		return err
	}
	tr.add(0, 0, 0, "zkml.Save", t0, time.Now())
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := zkml.LoadSystem(store, g, sample, opts); err != nil {
		return err
	}
	tr.add(0, 0, 0, "zkml.LoadSystem", t0, time.Now())
	t0 = time.Now()
	if _, err := zkml.LoadVerifier(store, g, sample, opts); err != nil {
		return err
	}
	tr.add(0, 0, 0, "zkml.LoadVerifier", t0, time.Now())
	ms.set("zkml.save_s", "s", median(tr.durations("zkml.Save")))
	ms.set("zkml.load_system_s", "s", median(tr.durations("zkml.LoadSystem")))
	ms.set("zkml.load_verifier_s", "s", median(tr.durations("zkml.LoadVerifier")))
	ms.set("zkml.artifact_bytes", "B", float64(fi.Size()))
	return nil
}

// planMetrics records the chosen plan's shape and estimate.
func planMetrics(ms *metrics, p *core.Plan) {
	ms.set("core.k", "count", float64(p.K))
	ms.set("core.cols", "count", float64(p.Config.NumCols))
	ms.set("core.rows_used", "count", float64(p.UsedRows))
	ms.set("core.est_prove_s", "s", p.Cost)
}

// stageMetrics records per-stage times, kernel counts and cost-model
// error from traced proves, each as the median over the reports.
func stageMetrics(ms *metrics, reports []*obs.Report, p *core.Plan) {
	med := func(f func(r *obs.Report) float64) float64 {
		xs := make([]float64, len(reports))
		for i, r := range reports {
			xs[i] = f(r)
		}
		return median(xs)
	}
	for _, st := range obs.StageNames() {
		ms.set("plonkish."+st+"_s", "s", med(func(r *obs.Report) float64 { return r.StageSeconds(st) }))
	}
	// Absolute error, so lower is better whichever way the model is off.
	for _, st := range []string{"total", "lookup", "quotient", "open"} {
		ms.set("costmodel.rel_err."+st, "1", med(func(r *obs.Report) float64 {
			for _, c := range p.CompareEstimate(r) {
				if c.Stage == st {
					return math.Abs(c.RelErr)
				}
			}
			return math.NaN()
		}))
	}
	ms.set("pcs.open_s", "s", med(func(r *obs.Report) float64 { return r.OpenSeconds }))
	ms.set("curve.msm_count", "count", med(func(r *obs.Report) float64 { return float64(r.MSMCount) }))
	ms.set("curve.fixed_msm_count", "count", med(func(r *obs.Report) float64 { return float64(r.FixedMSMCount) }))
	ms.set("curve.glv_splits", "count", med(func(r *obs.Report) float64 { return float64(r.GLVSplits) }))
	ms.set("poly.fft_count", "count", med(func(r *obs.Report) float64 { return float64(r.FFTCount) }))
	ms.set("ff.batch_inv_flushes", "count", med(func(r *obs.Report) float64 { return float64(r.BatchInvFlushes) }))
}

// nonHitWork is the set-up work in a snapshot delta, not counting
// commitment-table hits (the warm fast path).
func nonHitWork(w pcs.SetupWork) int64 {
	return w.KZGPowersExtended + w.KZGCombBuilds + w.IPAPointsDerived + w.CommitTableBuilds
}

// checkWarm fails when a warm steady-state loop did set-up work.
func checkWarm(w pcs.SetupWork) error {
	if !w.IsZero() {
		return fmt.Errorf("steady-state loop did set-up work: %+v", w)
	}
	return nil
}

// checkCoverage checks that a request's child spans lie inside it and
// cover at least 95% of it.
func checkCoverage(tr *tracer, req span) error {
	covered := 0.0
	for _, s := range tr.children(req.ID) {
		if s.Start < req.Start-1e-6 || s.End > req.End+1e-6 {
			return fmt.Errorf("span %s [%.4f, %.4f] outside request %d [%.4f, %.4f]", s.Name, s.Start, s.End, req.Req, req.Start, req.End)
		}
		covered += s.dur()
	}
	if covered > req.dur()+1e-6 || covered < 0.95*req.dur() {
		return fmt.Errorf("request %d: child spans cover %.4fs of %.4fs", req.Req, covered, req.dur())
	}
	return nil
}

// daemonMetricsAbsent records the zkmld metrics as 0 on workloads that
// run no daemon, so every traced run reports the same metric names.
func daemonMetricsAbsent(ms *metrics) {
	for _, k := range serveKinds {
		ms.set("zkmld.prove_s_p50."+k.name, "s", 0)
	}
	for _, name := range []string{"zkmld.overhead_s_p50", "zkmld.load_s"} {
		ms.set(name, "s", 0)
	}
	for _, name := range []string{"zkmld.store_loads", "zkmld.rejected", "zkmld.failed", "zkmld.timeouts", "zkmld.warm_setup_work"} {
		ms.set(name, "count", 0)
	}
}
