package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/zkml"
)

// serveKind is one request kind of the serve-mix traffic.
type serveKind struct {
	name   string
	model  string
	trace  bool
	shards int
}

// serveKinds are the request kinds, in the order a round sends them (see
// mix). The seed picks each request's input, not the schedule.
var serveKinds = []serveKind{
	{name: "mnist", model: "mnist"},
	{name: "mnist-traced", model: "mnist", trace: true},
	{name: "mnist-s3", model: "mnist", shards: 3},
	{name: "dlrm-micro", model: "dlrm-micro"},
}

// serveClients is the number of closed-loop clients (the host's nproc).
const serveClients = 2

// serveTamperEvery: every Nth request of a client also sends a tampered
// copy of its proof to /verify.
const serveTamperEvery = 3

// daemonOptions match zkmld's default circuit flags, so the store the
// benchmark builds is the one the daemon loads.
func daemonOptions(calib *costmodel.Calibration) zkml.Options {
	return zkml.Options{Backend: zkml.KZG, ScaleBits: 6, LookupBits: 10, MaxCols: 24, Calibration: calib}
}

// buildStore compiles the served systems into a fresh store and returns
// the plain mnist system with the plans of every circuit.
func buildStore(dir string, calib *costmodel.Calibration, tr *tracer) (*zkml.System, []planID, error) {
	opts := daemonOptions(calib)
	var mnist *zkml.System
	var plans []planID
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		if tr != nil {
			tr.add(0, 0, 0, name, t0, time.Now())
		}
		return err
	}
	for _, name := range []string{"mnist", "dlrm-micro"} {
		spec, err := zkml.Model(name)
		if err != nil {
			return nil, nil, err
		}
		var sys *zkml.System
		if err := timed("zkml.Compile", func() (err error) {
			sys, err = zkml.Compile(spec.Build(), spec.Input(1), opts)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", name, err)
		}
		if err := timed("zkml.Save", func() error { _, err := sys.Save(dir); return err }); err != nil {
			return nil, nil, err
		}
		plans = append(plans, planIDOf(sys.Plan))
		if name == "mnist" {
			mnist = sys
		}
	}
	spec, err := zkml.Model("mnist")
	if err != nil {
		return nil, nil, err
	}
	var ssys *zkml.ShardedSystem
	if err := timed("zkml.CompileSharded", func() (err error) {
		ssys, err = zkml.CompileSharded(spec.Build(), spec.Input(1), 3, opts)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("compile mnist@3: %w", err)
	}
	if _, err := ssys.Save(dir); err != nil {
		return nil, nil, err
	}
	for _, c := range ssys.Plan.Chunks {
		plans = append(plans, planIDOf(c))
	}
	return mnist, plans, nil
}

// daemon is a running zkmld process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startDaemon spawns zkmld on a free loopback port with the served models
// preloaded from store, and waits until it answers /healthz. It returns
// the time from spawn until ready.
func startDaemon(a args, store string) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(a.zkmld, "-addr", addr, "-keys", store, "-preload", "mnist,dlrm-micro,mnist@3")
	cmd.Env = append(os.Environ(), "ZKML_CALIBRATION="+a.calibration)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The daemon must not outlive this process, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting zkmld: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	for {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("zkmld exited before it was ready: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		if resp, err := httpClient.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 120*time.Second {
			d.stop()
			return nil, 0, errors.New("zkmld not ready after 120s")
		}
	}
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // already exited is fine: Wait reports it
	<-d.done
}

var httpClient = &http.Client{Timeout: 150 * time.Second}

// call sends a JSON request and decodes the JSON reply into out; it
// returns the status and the round-trip time.
func (d *daemon) call(method, path string, body, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rt := time.Since(start)
	if err != nil {
		return resp.StatusCode, rt, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, rt, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, rt, nil
}

type proveReply struct {
	Proof     string        `json:"proof"`
	Outputs   []float64     `json:"outputs"`
	ProveSecs float64       `json:"prove_s"`
	Source    string        `json:"source"`
	SetupWork pcs.SetupWork `json:"setup_work"`
	Trace     *obs.Report   `json:"trace"`
}

type verifyReply struct {
	Valid   bool      `json:"valid"`
	Outputs []float64 `json:"outputs"`
}

type statsReply struct {
	Requests  map[string]int64 `json:"requests"`
	SetupWork pcs.SetupWork    `json:"setup_work"`
}

type modelsReply struct {
	Models []struct {
		Name    string  `json:"name"`
		Loaded  bool    `json:"loaded"`
		Source  string  `json:"source"`
		LoadSec float64 `json:"load_s"`
	} `json:"models"`
}

// checkModels requires the three served systems to be loaded from the
// store; it returns their summed load time.
func (d *daemon) checkModels() (loads int, loadSecs float64, err error) {
	var m modelsReply
	status, _, err := d.call("GET", "/models", nil, &m)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/models: status %d", status)
	}
	if err != nil {
		return 0, 0, err
	}
	for _, e := range m.Models {
		if !e.Loaded {
			continue
		}
		if e.Source != "store" {
			return 0, 0, fmt.Errorf("zkmld loaded %s from %q, not the store", e.Name, e.Source)
		}
		loads++
		loadSecs += e.LoadSec
	}
	if loads != 3 {
		return loads, loadSecs, fmt.Errorf("zkmld has %d systems loaded, want 3", loads)
	}
	return loads, loadSecs, nil
}

func (d *daemon) stats() (statsReply, error) {
	var s statsReply
	status, _, err := d.call("GET", "/stats", nil, &s)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/stats: status %d", status)
	}
	return s, err
}

// serveSample is one request of the serve-mix loop.
type serveSample struct {
	kind      string
	seed      int64
	proveRT   float64
	proveS    float64
	verifyRT  []float64
	report    *obs.Report
	proof     []byte
	outputs   []float64
	setupWork pcs.SetupWork

	// Span bookkeeping for traced runs.
	req, reqID int
	start      time.Time
}

// serveProve sends one /prove and checks the reply: the outputs against
// the float reference, a trace when one was asked for, and, when warm, no
// set-up work. Every check is counted in t.
func serveProve(d *daemon, k serveKind, seed int64, warm bool, t *tally, tr *tracer, req int) (*serveSample, bool) {
	s := &serveSample{kind: k.name, seed: seed, req: req}
	spec, err := zkml.Model(k.model)
	if !t.op(err) {
		return nil, false
	}
	want, err := floatReference(spec.Build(), spec.Input(seed))
	if !t.op(err) {
		return nil, false
	}
	if tr != nil {
		s.reqID = tr.id()
	}
	s.start = time.Now()
	var pr proveReply
	status, rt, err := d.call("POST", "/prove", map[string]any{"model": k.model, "seed": seed, "trace": k.trace, "shards": k.shards}, &pr)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/prove %s: status %d", k.name, status)
	}
	if !t.op(err) {
		return nil, false
	}
	t1 := time.Now()
	if tr != nil {
		pid := tr.add(0, s.reqID, req, "http.prove", s.start, t1).ID
		// The daemon reports its prove duration only; the span ends when
		// the reply arrived.
		tr.add(0, pid, req, "zkmld.prove", t1.Add(-time.Duration(pr.ProveSecs*1e9)), t1)
	}
	s.proveRT, s.proveS, s.report, s.setupWork, s.outputs = rt.Seconds(), pr.ProveSecs, pr.Trace, pr.SetupWork, pr.Outputs
	if !t.op(checkOutputs(pr.Outputs, want, quantStep(6))) {
		return nil, false
	}
	if k.trace && pr.Trace == nil {
		t.op(fmt.Errorf("traced /prove %s returned no trace", k.name))
		return nil, false
	}
	if w := pr.SetupWork; warm && !w.IsZero() {
		t.op(fmt.Errorf("warm /prove %s did set-up work: %+v", k.name, w))
	}
	s.proof, err = base64.StdEncoding.DecodeString(pr.Proof)
	return s, t.op(err)
}

// serveVerify sends the proof to /verify verifyReps times, each of which
// must accept it with the proved outputs; tampered sends a tampered copy
// too, which must be rejected. Every check is counted in t.
func serveVerify(d *daemon, k serveKind, s *serveSample, tampered bool, r *rand.Rand, t *tally, tr *tracer) bool {
	proof := base64.StdEncoding.EncodeToString(s.proof)
	var v1 time.Time
	for v := 0; v < verifyReps; v++ {
		var vr verifyReply
		v0 := time.Now()
		status, rt, err := d.call("POST", "/verify", map[string]any{"model": k.model, "proof": proof, "shards": k.shards}, &vr)
		switch {
		case err != nil:
		case status != http.StatusOK:
			err = fmt.Errorf("/verify %s: status %d", k.name, status)
		case !vr.Valid:
			err = fmt.Errorf("/verify %s rejected a valid proof", k.name)
		default:
			err = checkOutputs(vr.Outputs, s.outputs, 0)
		}
		if !t.op(err) {
			return false
		}
		v1 = time.Now()
		if tr != nil {
			tr.add(0, s.reqID, s.req, "http.verify", v0, v1)
		}
		s.verifyRT = append(s.verifyRT, rt.Seconds())
	}
	if tr != nil {
		tr.add(s.reqID, 0, s.req, "zkmld.request."+k.name, s.start, v1)
	}
	if tampered {
		bad := base64.StdEncoding.EncodeToString(tamper(s.proof, r.Intn))
		var vr verifyReply
		status, _, err := d.call("POST", "/verify", map[string]any{"model": k.model, "proof": bad, "shards": k.shards}, &vr)
		if err == nil {
			err = tamperReplyVerdict(status, vr.Valid)
		}
		t.op(err)
	}
	return true
}

// tamperReplyVerdict judges zkmld's reply to a tampered /verify: 400
// (malformed) and valid:false are rejections; valid:true is an accepted
// tampered proof.
func tamperReplyVerdict(status int, valid bool) error {
	switch {
	case status == http.StatusBadRequest, status == http.StatusOK && !valid:
		return nil
	case status == http.StatusOK:
		return errTamperAccepted
	default:
		return fmt.Errorf("tampered /verify: status %d", status)
	}
}

// mix runs the serve-mix clients. A round sends every kind once from each
// client, one kind at a time: both clients send the same kind's /prove
// together, wait for each other, then send their /verify calls together.
// So whole rounds hold the kinds in equal shares, and every round has the
// same overlaps: two untraced proves share the worker pool, two traced
// proves queue on the daemon's trace lock, and verifies never compete with
// a prove. Mixing kinds or phases would make each latency depend on which
// call happened to run beside it.
type mix struct {
	d       *daemon
	t       *tally
	tr      *tracer
	rngs    []*rand.Rand
	n       []int
	samples []*serveSample
}

func newMix(d *daemon, seed int64, t *tally, tr *tracer) *mix {
	m := &mix{d: d, t: t, tr: tr, n: make([]int, serveClients)}
	for c := 0; c < serveClients; c++ {
		m.rngs = append(m.rngs, rand.New(rand.NewSource(seed*1000003+int64(c))))
	}
	return m
}

// prove sends client c's next /prove. An untimed request is not traced
// and may do set-up work.
func (m *mix) prove(c int, k serveKind, timed bool) *serveSample {
	m.n[c]++
	var tr *tracer
	if timed {
		tr = m.tr
	}
	s, ok := serveProve(m.d, k, m.rngs[c].Int63n(1<<40), timed, m.t, tr, c*100000+m.n[c])
	if !ok {
		return nil
	}
	return s
}

// verify sends client c's verifies for s, tampering every
// serveTamperEvery-th request.
func (m *mix) verify(c int, k serveKind, s *serveSample, timed bool) bool {
	var tr *tracer
	if timed {
		tr = m.tr
	}
	return serveVerify(m.d, k, s, m.n[c]%serveTamperEvery == 0, m.rngs[c], m.t, tr)
}

// each runs fn once per client concurrently and waits for all of them.
func each(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// warm sends every kind once, untimed, split across the clients, so the
// commitment table and per-size caches are built before timing starts.
func (m *mix) warm() {
	each(func(c int) {
		for i := c; i < len(serveKinds); i += serveClients {
			if s := m.prove(c, serveKinds[i], false); s != nil {
				m.verify(c, serveKinds[i], s, false)
			}
		}
	})
}

// round runs one timed round and returns its wall time.
func (m *mix) round() time.Duration {
	start := time.Now()
	for _, k := range serveKinds {
		got := make([]*serveSample, serveClients)
		each(func(c int) { got[c] = m.prove(c, k, true) })
		each(func(c int) {
			if got[c] != nil && !m.verify(c, k, got[c], true) {
				got[c] = nil
			}
		})
		for _, s := range got {
			if s != nil {
				m.samples = append(m.samples, s)
			}
		}
	}
	return time.Since(start)
}

// runServe is the serve-mix workload. Set-up builds a fresh store; the
// untraced run then times daemon start-up several times and keeps the
// last daemon to serve the loop; the traced run starts one daemon and
// adds in-process layer timings on the served mnist system.
func runServe(a args, calib *costmodel.Calibration, tr *tracer) (*metrics, *tally, []string, error) {
	t := &tally{}
	ms := newMetrics()
	var notes []string
	store := filepath.Join(a.runDir, "store")
	mnist, plans, err := buildStore(store, calib, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	t.op(checkPlanRecord(a.planRecord(), plans))
	notes = append(notes, "plan: "+mnist.Describe())

	starts := 1
	if tr == nil {
		starts = setupSamples
	}
	var readies []float64
	var d *daemon
	for i := 0; i < starts; i++ {
		if d != nil {
			d.stop()
		}
		var ready time.Duration
		d, ready, err = startDaemon(a, store)
		if err != nil {
			return nil, nil, nil, err
		}
		readies = append(readies, ready.Seconds())
	}
	defer d.stop()
	loads, loadSecs, err := d.checkModels()
	t.op(err)

	m := newMix(d, a.seed, t, tr)
	m.warm()
	before, err := d.stats()
	if err != nil {
		return nil, nil, nil, err
	}
	// A timed round starts only while the last one would still fit.
	rs := sampleRSS(strconv.Itoa(d.cmd.Process.Pid))
	budget := time.Duration(a.seconds) * time.Second
	start := time.Now()
	for last := time.Duration(0); last == 0 || time.Since(start)+last <= budget; {
		last = m.round()
	}
	window := time.Since(start)
	rss := rs.finish()
	samples := m.samples
	after, err := d.stats()
	if err != nil {
		return nil, nil, nil, err
	}
	peak, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, nil, nil, err
	}

	var proveRT, verifyRT, sizes []float64
	for _, s := range samples {
		proveRT = append(proveRT, s.proveRT)
		verifyRT = append(verifyRT, s.verifyRT...)
		sizes = append(sizes, float64(len(s.proof)))
	}
	if tr == nil {
		tl := chooseTail(proveRT)
		ms.set("setup_s", "s", median(readies))
		ms.set("prove_s_p50", "s", median(proveRT))
		ms.set("prove_s_tail", "s", tl.Value)
		ms.set("verify_s_p50", "s", median(verifyRT))
		ms.set("proves_per_s", "1/s", float64(len(samples))/window.Seconds())
		ms.set("proof_bytes", "B", median(sizes))
		ms.set("rss_p50_mib", "MiB", median(rss))
		ms.set("ok_ratio", "1", t.okRatio())
		notes = append(notes, fmt.Sprintf("prove_s_tail: p%g of %d samples, %d beyond", tl.Level, tl.N, tl.Beyond))
		notes = append(notes, fmt.Sprintf("daemon ready samples (s): %.3f", readies))
		for _, k := range serveKinds {
			notes = append(notes, fmt.Sprintf("%s round trips (s): %.3f", k.name, roundTrips(samples, k.name)))
		}
		notes = append(notes, rssNote(rss, peak))
		return ms, t, notes, nil
	}

	// Traced run: the daemon's counters and per-kind timings, then the
	// in-process layers at the served mnist system's sizes.
	var overhead, tracedS, plainS []float64
	var reports []*obs.Report
	var warmWork int64
	for _, s := range samples {
		overhead = append(overhead, s.proveRT-s.proveS)
		warmWork += nonHitWork(s.setupWork)
		switch s.kind {
		case "mnist-traced":
			tracedS = append(tracedS, s.proveS)
			reports = append(reports, s.report)
		case "mnist":
			plainS = append(plainS, s.proveS)
		}
	}
	for _, k := range serveKinds {
		ms.set("zkmld.prove_s_p50."+k.name, "s", median(roundTrips(samples, k.name)))
	}
	ms.set("zkmld.overhead_s_p50", "s", median(overhead))
	ms.set("zkmld.load_s", "s", loadSecs)
	ms.set("zkmld.store_loads", "count", float64(loads))
	for _, name := range []string{"rejected", "failed", "timeouts"} {
		ms.set("zkmld."+name, "count", float64(after.Requests[name]-before.Requests[name]))
	}
	ms.set("zkmld.warm_setup_work", "count", float64(warmWork))
	work := after.SetupWork.Sub(before.SetupWork)
	t.op(checkWarm(work))
	ms.set("pcs.commit_table_builds", "count", float64(work.CommitTableBuilds))
	ms.set("pcs.commit_table_hits", "count", float64(work.CommitTableHits))
	ms.set("pcs.warm_setup_work", "count", float64(nonHitWork(work)))
	// A traced prove's prove_s includes its wait for the trace lock.
	ms.set("obs.trace_overhead", "1", median(tracedS)/median(plainS)-1)

	opts := daemonOptions(calib)
	spec, err := zkml.Model("mnist")
	if err != nil {
		return nil, nil, nil, err
	}
	g, sample := spec.Build(), spec.Input(1)
	if err := storeMetrics(ms, tr, mnist, filepath.Join(a.runDir, "resave"), g, sample, opts); err != nil {
		return nil, nil, nil, err
	}
	verifier, err := zkml.LoadVerifier(store, g, sample, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	// The daemon loads rather than optimizes and keygens; those layers do
	// not run in its set-up.
	ms.set("core.optimize_s", "s", 0)
	ms.set("core.candidates", "count", 0)
	ms.set("plonkish.keygen_s", "s", 0)
	planMetrics(ms, mnist.Plan)
	for _, s := range samples {
		if s.kind != "mnist" {
			continue
		}
		t0 := time.Now()
		if _, err := mnist.Plan.Synthesize(spec.Input(s.seed)); !t.op(err) {
			continue
		}
		tr.add(0, 0, 0, "model.Synthesize", t0, time.Now())
		p, err := verifier.ImportProof(s.proof)
		if !t.op(err) {
			continue
		}
		t0 = time.Now()
		err = plonkish.Verify(verifier.Keys.VK, p.Instance, p.Proof)
		t1 := time.Now()
		if t.op(err) {
			tr.add(0, 0, 0, "plonkish.Verify", t0, t1)
		}
	}
	ms.set("model.synthesize_s", "s", median(tr.durations("model.Synthesize")))
	stageMetrics(ms, reports, mnist.Plan)
	ms.set("plonkish.verify_s", "s", median(tr.durations("plonkish.Verify")))
	var ratio []float64
	for _, r := range reports {
		sum := 0.0
		for _, st := range r.Stages {
			sum += st.Seconds
		}
		ratio = append(ratio, sum/r.TotalSeconds)
	}
	ms.set("plonkish.stage_sum_ratio", "1", median(ratio))
	kernelRows(ms, rand.New(rand.NewSource(a.seed)), mnist.Plan.K, mnist.Plan.Layout.ExtK())
	ms.set("curve.fixed_msm_s_computed", "s", ms.m["curve.fixed_msm_count"].Value*ms.m["curve.fixed_msm_ns"].Value/1e9)
	notes = append(notes, fmt.Sprintf("serve-mix traced: %d samples, %d traced reports", len(samples), len(reports)))
	return ms, t, notes, nil
}

// roundTrips returns the /prove round trips of one kind.
func roundTrips(samples []*serveSample, kind string) []float64 {
	var xs []float64
	for _, s := range samples {
		if s.kind == kind {
			xs = append(xs, s.proveRT)
		}
	}
	return xs
}
