// Command zkmld is the ZKML-Go proving daemon: it keeps compiled proving
// systems warm in memory and serves proves and verifies over HTTP, so the
// per-request cost is witness synthesis + proving rather than optimizer
// sweep + keygen + SRS extension.
//
// Endpoints:
//
//	GET  /healthz   liveness probe
//	GET  /models    loaded systems, one per cache key (model or model@shards)
//	GET  /stats     counters, setup-work totals, recent requests
//	POST /prove     {"model","seed","trace","shards"} -> proof + outputs (+ trace)
//	POST /verify    {"model","proof","shards"} -> validity
//
// Concurrency model: proves are CPU-bound and internally parallel (the
// proving engine fans out across cores via internal/parallel), so the
// daemon admits only a bounded number of in-flight proves and answers 429
// with Retry-After when saturated, instead of queueing unboundedly and
// timing everyone out. A traced prove carries its own kernel counters, so
// traced, untraced and sharded proves share the admitted slots alike.
package main

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/zkml"
)

type config struct {
	// KeysDir is the artifact store. Loads come from it when populated and
	// compiles fill it; empty disables persistence (compile-only warmup).
	KeysDir string
	// Options are the compile options shared by every served model.
	Options zkml.Options
	// MaxInflight bounds concurrently admitted proves; further requests get
	// 429 + Retry-After.
	MaxInflight int
	// ProveTimeout caps how long a request waits for its prove. The prove
	// itself is not cancellable mid-MSM; on timeout the request gets 504 and
	// the slot is released when the prove eventually finishes.
	ProveTimeout time.Duration
	// RecentRing is how many finished requests /stats keeps.
	RecentRing int
}

func (c config) withDefaults() config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.ProveTimeout <= 0 {
		c.ProveTimeout = 10 * time.Minute
	}
	if c.RecentRing <= 0 {
		c.RecentRing = 32
	}
	return c
}

// modelEntry is one cached compiled system. The entry is created under the
// server mutex but loaded inside its own once, so two requests for the same
// model share one load and requests for different models don't serialize.
type modelEntry struct {
	once sync.Once

	sys     *zkml.ShardedSystem
	err     error
	hash    string
	source  string // "store" or "compiled"
	loadDur time.Duration
	setup   pcs.SetupWork // setup work the load performed
}

// requestRecord is one finished request as surfaced by /stats.
type requestRecord struct {
	Kind      string    `json:"kind"` // "prove" or "verify"
	Model     string    `json:"model"`
	Status    int       `json:"status"`
	Millis    float64   `json:"ms"`
	Traced    bool      `json:"traced,omitempty"`
	MSMs      int64     `json:"msms,omitempty"`
	FFTs      int64     `json:"ffts,omitempty"`
	ProveSecs float64   `json:"prove_s,omitempty"`
	Error     string    `json:"error,omitempty"`
	Time      time.Time `json:"time"`
}

type server struct {
	cfg   config
	mux   *http.ServeMux
	start time.Time

	sem chan struct{}

	mu      sync.Mutex
	systems map[string]*modelEntry
	recent  []requestRecord

	proves   atomic.Int64
	verifies atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
	failed   atomic.Int64
	inflight atomic.Int64
}

func newServer(cfg config) *server {
	cfg = cfg.withDefaults()
	s := &server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		systems: make(map[string]*modelEntry),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /models", s.handleModels)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /prove", s.handleProve)
	s.mux.HandleFunc("POST /verify", s.handleVerify)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// entry returns the cache slot for a model, creating it unloaded.
func (s *server) entry(name string) *modelEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.systems[name]
	if !ok {
		e = &modelEntry{}
		s.systems[name] = e
	}
	return e
}

// cached reports whether a cache slot exists for key.
func (s *server) cached(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.systems[key]
	return ok
}

// system returns the compiled system for (model, shards), loading it on
// first use: from the artifact store when possible (deserialize, zero
// keygen), else by compiling once — and filling the store so the next
// daemon start is warm. Shards 0 and 1 both mean the one-chunk system,
// cached under the model name; more shards cache under "model@shards", so
// the same model served at several shard counts coexists warm. A negative
// shard count, or one above the model's node count, is rejected before
// any cache slot is created.
func (s *server) system(name string, shards int) (*modelEntry, error) {
	spec, err := zkml.Model(name)
	if err != nil {
		return nil, err
	}
	if shards < 0 {
		return nil, fmt.Errorf("shard count %d is negative", shards)
	}
	shards = max(shards, 1)
	key := name
	if shards > 1 {
		key = fmt.Sprintf("%s@%d", name, shards)
	}
	if !s.cached(key) {
		if nodes := len(spec.Build().Nodes); shards > nodes {
			return nil, fmt.Errorf("cannot split %d nodes into %d shards", nodes, shards)
		}
	}
	e := s.entry(key)
	e.once.Do(func() {
		start := time.Now()
		before := pcs.SetupWorkSnapshot()
		e.sys, e.source, e.err = s.load(spec.Build(), spec.Input(1), shards)
		e.loadDur = time.Since(start)
		e.setup = pcs.SetupWorkSnapshot().Sub(before)
		if e.sys != nil {
			e.hash = fmt.Sprintf("%x", e.sys.ModelCommitment())
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// load returns the system from the store when it holds one, else compiles
// it and fills the store; source says which.
func (s *server) load(g *zkml.Graph, sample *zkml.Input, shards int) (*zkml.ShardedSystem, string, error) {
	if s.cfg.KeysDir != "" {
		sys, err := zkml.LoadShardedSystem(s.cfg.KeysDir, g, sample, shards, s.cfg.Options)
		if err == nil {
			return sys, "store", nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
	}
	sys, err := zkml.CompileSharded(g, sample, shards, s.cfg.Options)
	if err != nil {
		return nil, "", err
	}
	if s.cfg.KeysDir != "" {
		if _, err := sys.Save(s.cfg.KeysDir); err != nil {
			return nil, "", err
		}
	}
	return sys, "compiled", nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) record(rec requestRecord) {
	rec.Time = time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recent = append(s.recent, rec)
	if len(s.recent) > s.cfg.RecentRing {
		s.recent = s.recent[len(s.recent)-s.cfg.RecentRing:]
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_s": time.Since(s.start).Seconds()})
}

func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelInfo struct {
		Name    string  `json:"name"`
		Loaded  bool    `json:"loaded"`
		Source  string  `json:"source,omitempty"`
		Hash    string  `json:"hash,omitempty"`
		Desc    string  `json:"desc,omitempty"`
		LoadSec float64 `json:"load_s,omitempty"`
	}
	s.mu.Lock()
	entries := make(map[string]*modelEntry, len(s.systems))
	for name, e := range s.systems {
		entries[name] = e
	}
	s.mu.Unlock()
	keys := make([]string, 0, len(entries))
	for key, e := range entries {
		if e.sys != nil {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	out := []modelInfo{}
	for _, key := range keys {
		e := entries[key]
		out = append(out, modelInfo{
			Name: key, Loaded: true, Source: e.source, Hash: e.hash,
			Desc: e.sys.Describe(), LoadSec: e.loadDur.Seconds(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recent := append([]requestRecord(nil), s.recent...)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"requests": map[string]int64{
			"proves":    s.proves.Load(),
			"verifies":  s.verifies.Load(),
			"rejected":  s.rejected.Load(),
			"timeouts":  s.timeouts.Load(),
			"failed":    s.failed.Load(),
			"in_flight": s.inflight.Load(),
		},
		"setup_work": pcs.SetupWorkSnapshot(),
		"recent":     recent,
	})
}

type proveRequest struct {
	Model string `json:"model"`
	Seed  int64  `json:"seed"`
	Trace bool   `json:"trace"`
	// Shards is the chunk count (0 or 1: the model as one circuit). More
	// chunks are proved in parallel, with committed boundary activations
	// linking them. Trace needs a single chunk.
	Shards int `json:"shards,omitempty"`
}

type proveResponse struct {
	Model     string        `json:"model"`
	ModelHash string        `json:"model_hash"`
	Seed      int64         `json:"seed"`
	Shards    int           `json:"shards,omitempty"`
	Proof     string        `json:"proof"` // base64 of ExportProof
	Outputs   []float64     `json:"outputs"`
	ProveSecs float64       `json:"prove_s"`
	Source    string        `json:"source"` // where the keys came from
	SetupWork pcs.SetupWork `json:"setup_work"`
	Trace     *obs.Report   `json:"trace,omitempty"`
}

// proveResult carries a finished prove across the timeout boundary.
type proveResult struct {
	resp   *proveResponse
	rec    requestRecord
	status int
	errMsg string
}

func (s *server) handleProve(w http.ResponseWriter, r *http.Request) {
	var req proveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Model == "" {
		writeErr(w, http.StatusBadRequest, "missing model")
		return
	}
	if req.Trace && req.Shards > 1 {
		writeErr(w, http.StatusBadRequest, "trace is not supported with shards > 1 (stage tracing is per-circuit)")
		return
	}
	// Admission control: CPU-bound proves don't queue, they shed.
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "2")
		writeErr(w, http.StatusTooManyRequests, "prover saturated (%d in flight); retry later", s.cfg.MaxInflight)
		return
	}
	s.proves.Add(1)
	s.inflight.Add(1)
	done := make(chan proveResult, 1)
	go func() {
		defer func() { <-s.sem; s.inflight.Add(-1) }()
		done <- s.prove(req)
	}()
	select {
	case res := <-done:
		s.record(res.rec)
		if res.resp != nil {
			writeJSON(w, res.status, res.resp)
		} else {
			s.failed.Add(1)
			writeErr(w, res.status, "%s", res.errMsg)
		}
	case <-time.After(s.cfg.ProveTimeout):
		s.timeouts.Add(1)
		s.record(requestRecord{Kind: "prove", Model: req.Model,
			Status: http.StatusGatewayTimeout, Millis: s.cfg.ProveTimeout.Seconds() * 1000,
			Error: "timeout"})
		writeErr(w, http.StatusGatewayTimeout, "prove exceeded %v; the slot frees when it completes", s.cfg.ProveTimeout)
	}
}

// prove runs one admitted prove request end to end.
func (s *server) prove(req proveRequest) proveResult {
	start := time.Now()
	fail := func(status int, format string, args ...any) proveResult {
		msg := fmt.Sprintf(format, args...)
		return proveResult{
			status: status, errMsg: msg,
			rec: requestRecord{Kind: "prove", Model: req.Model, Status: status,
				Millis: float64(time.Since(start).Microseconds()) / 1000, Error: msg},
		}
	}
	// The setup-work window covers the whole request, including the system
	// load: a warm request must report zero keygen/SRS work end to end.
	setupBefore := pcs.SetupWorkSnapshot()
	e, err := s.system(req.Model, req.Shards)
	if err != nil {
		return fail(http.StatusBadRequest, "model %q: %v", req.Model, err)
	}
	spec, err := zkml.Model(req.Model)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	in := spec.Input(req.Seed)

	var proof *zkml.ShardedProof
	var rep *obs.Report
	var data []byte
	var outputs []float64
	proveStart := time.Now()
	if req.Trace {
		proof, rep, err = e.sys.ProveTraced(in)
	} else {
		proof, err = e.sys.Prove(in)
	}
	proveDur := time.Since(proveStart)
	if err == nil {
		data, err = e.sys.ExportProof(proof)
		outputs = e.sys.Outputs(proof)
	}
	setup := pcs.SetupWorkSnapshot().Sub(setupBefore)
	if err != nil {
		return fail(http.StatusInternalServerError, "prove: %v", err)
	}
	resp := &proveResponse{
		Model:     req.Model,
		ModelHash: e.hash,
		Seed:      req.Seed,
		Shards:    req.Shards,
		Proof:     base64.StdEncoding.EncodeToString(data),
		Outputs:   outputs,
		ProveSecs: proveDur.Seconds(),
		Source:    e.source,
		SetupWork: setup,
		Trace:     rep,
	}
	rec := requestRecord{Kind: "prove", Model: req.Model, Status: http.StatusOK,
		Millis: float64(time.Since(start).Microseconds()) / 1000,
		Traced: req.Trace, ProveSecs: proveDur.Seconds()}
	if rep != nil {
		rec.MSMs, rec.FFTs = rep.MSMCount, rep.FFTCount
	}
	return proveResult{resp: resp, rec: rec, status: http.StatusOK}
}

type verifyRequest struct {
	Model string `json:"model"`
	Proof string `json:"proof"` // base64 of ExportProof bytes
	// Shards selects the system the proof was made by, as in /prove.
	Shards int `json:"shards,omitempty"`
}

func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req verifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	s.verifies.Add(1)
	finish := func(status int, body any, errMsg string) {
		s.record(requestRecord{Kind: "verify", Model: req.Model, Status: status,
			Millis: float64(time.Since(start).Microseconds()) / 1000, Error: errMsg})
		if errMsg != "" && body == nil {
			s.failed.Add(1)
			writeErr(w, status, "%s", errMsg)
			return
		}
		writeJSON(w, status, body)
	}
	if req.Model == "" {
		finish(http.StatusBadRequest, nil, "missing model")
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.Proof)
	if err != nil {
		finish(http.StatusBadRequest, nil, fmt.Sprintf("proof is not valid base64: %v", err))
		return
	}
	e, err := s.system(req.Model, req.Shards)
	if err != nil {
		finish(http.StatusBadRequest, nil, fmt.Sprintf("model %q: %v", req.Model, err))
		return
	}
	proof, err := e.sys.ImportProof(data)
	if err != nil {
		finish(http.StatusBadRequest, nil, fmt.Sprintf("malformed proof: %v", err))
		return
	}
	if err := e.sys.Verify(proof); err != nil {
		finish(http.StatusOK, map[string]any{"valid": false, "reason": err.Error()}, "")
		return
	}
	outputs := e.sys.Outputs(proof)
	finish(http.StatusOK, map[string]any{
		"valid": true, "model": req.Model, "model_hash": e.hash,
		"shards": req.Shards, "outputs": outputs,
	}, "")
}
