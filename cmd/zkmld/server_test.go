package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/plonkish"
	"repro/zkml"
)

var testCalib = costmodel.Calibrate(8, 10)

func testConfig(keysDir string) config {
	return config{
		KeysDir: keysDir,
		Options: zkml.Options{ScaleBits: 6, LookupBits: 10, MaxCols: 20,
			Calibration: testCalib},
		MaxInflight: 2,
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string) map[string]json.RawMessage {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func unmarshalField[T any](t *testing.T, m map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	raw, ok := m[key]
	if !ok {
		t.Fatalf("response missing %q field", key)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

// setupIsZero reports whether a JSON-decoded setup_work block records no
// setup work. Commit-table hits are excluded: a hit is the amortized
// fast path commitments take once a table exists, not setup work
// (matching pcs.SetupWork.IsZero).
func setupIsZero(m map[string]int64) bool {
	for k, v := range m {
		if k == "commit_table_hits" {
			continue
		}
		if v != 0 {
			return false
		}
	}
	return true
}

// TestDaemonSmoke is the CI entry behind `make daemon-smoke`: bring up the
// daemon, prove and verify over HTTP, and pin the warm-path guarantees —
// a warm prove does zero keygen/SRS work and is far faster than the cold
// one, a daemon restarted over a populated key store does no keygen at all,
// and /stats surfaces the per-request trace.
func TestDaemonSmoke(t *testing.T) {
	keysDir := t.TempDir()
	ts := httptest.NewServer(newServer(testConfig(keysDir)))
	defer ts.Close()

	if status := getJSON(t, ts, "/healthz"); unmarshalField[string](t, status, "status") != "ok" {
		t.Fatal("healthz not ok")
	}

	// Cold prove: compiles + keygens inside the request, so it reports
	// setup work and takes its time.
	coldStart := time.Now()
	resp, body := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 7})
	coldDur := time.Since(coldStart)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold prove: status %d: %s", resp.StatusCode, body["error"])
	}
	if setupIsZero(unmarshalField[map[string]int64](t, body, "setup_work")) {
		t.Fatal("cold prove reported zero setup work; the assertion below would be vacuous")
	}
	if unmarshalField[string](t, body, "source") != "compiled" {
		t.Fatalf("cold prove source %s, want compiled", body["source"])
	}
	proofB64 := unmarshalField[string](t, body, "proof")
	// Setup overhead = request latency minus the proving itself. The cold
	// request pays the optimizer sweep + keygen here; a warm request must
	// not.
	coldOverhead := coldDur - time.Duration(unmarshalField[float64](t, body, "prove_s")*float64(time.Second))

	// Warm traced prove: same model, cached system — zero setup work, and
	// much faster than the cold request that had to compile.
	warmStart := time.Now()
	resp, body = postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 8, Trace: true})
	warmDur := time.Since(warmStart)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm prove: status %d: %s", resp.StatusCode, body["error"])
	}
	warmWork := unmarshalField[map[string]int64](t, body, "setup_work")
	if !setupIsZero(warmWork) {
		t.Fatalf("warm prove did setup work: %s", body["setup_work"])
	}
	if warmWork["commit_table_hits"] == 0 {
		t.Fatal("warm prove was not served by the fixed-base commitment tables")
	}
	warmOverhead := warmDur - time.Duration(unmarshalField[float64](t, body, "prove_s")*float64(time.Second))
	if warmOverhead > coldOverhead/2 {
		t.Fatalf("warm prove setup overhead (%v) not meaningfully below cold (%v)", warmOverhead, coldOverhead)
	}
	trace := unmarshalField[map[string]json.RawMessage](t, body, "trace")
	if len(trace) == 0 {
		t.Fatal("traced prove returned no trace report")
	}

	// The traced request surfaces in /stats with its kernel counters.
	stats := getJSON(t, ts, "/stats")
	recent := unmarshalField[[]requestRecord](t, stats, "recent")
	var traced *requestRecord
	for i := range recent {
		if recent[i].Traced {
			traced = &recent[i]
		}
	}
	if traced == nil {
		t.Fatal("/stats has no traced request record")
	}
	if traced.MSMs == 0 || traced.FFTs == 0 {
		t.Fatalf("traced record carries no kernel counts: %+v", traced)
	}

	// Round-trip the proof through /verify; a tampered copy must fail.
	resp, body = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro", Proof: proofB64})
	if resp.StatusCode != http.StatusOK || !unmarshalField[bool](t, body, "valid") {
		t.Fatalf("verify rejected a fresh proof: %d %s", resp.StatusCode, body["error"])
	}
	raw, err := base64.StdEncoding.DecodeString(proofB64)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), raw...)
	tampered[10] ^= 1 // first instance value, behind the 5-byte chain and 5-byte column headers
	resp, body = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro",
		Proof: base64.StdEncoding.EncodeToString(tampered)})
	if resp.StatusCode != http.StatusOK || unmarshalField[bool](t, body, "valid") {
		t.Fatal("verify accepted a tampered proof")
	}
	resp, _ = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro",
		Proof: base64.StdEncoding.EncodeToString(raw[:10])})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated proof: status %d, want 400", resp.StatusCode)
	}

	// /models shows the loaded entry.
	models := getJSON(t, ts, "/models")
	type modelInfo struct {
		Name   string `json:"name"`
		Loaded bool   `json:"loaded"`
		Source string `json:"source"`
	}
	var found bool
	for _, m := range unmarshalField[[]modelInfo](t, models, "models") {
		if m.Name == "dlrm-micro" && m.Loaded {
			found = true
		}
	}
	if !found {
		t.Fatal("/models does not list dlrm-micro as loaded")
	}
	ts.Close()

	// Daemon restart over the populated store: the first prove deserializes
	// the artifact — no optimizer sweep, no keygen, no SRS extension.
	ts2 := httptest.NewServer(newServer(testConfig(keysDir)))
	defer ts2.Close()
	resp, body = postJSON(t, ts2, "/prove", proveRequest{Model: "dlrm-micro", Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart prove: status %d: %s", resp.StatusCode, body["error"])
	}
	if unmarshalField[string](t, body, "source") != "store" {
		t.Fatalf("restart prove source %s, want store", body["source"])
	}
	restartWork := unmarshalField[map[string]int64](t, body, "setup_work")
	if b := restartWork["commit_table_builds"]; b > 1 {
		t.Fatalf("restart prove rebuilt commitment tables %d times, want at most one per model load", b)
	}
	restartWork["commit_table_builds"] = 0
	if !setupIsZero(restartWork) {
		t.Fatalf("cold start from populated store did setup work: %s", body["setup_work"])
	}
}

func TestDaemonAdmissionControl(t *testing.T) {
	srv := newServer(testConfig(""))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Saturate every prove slot, then expect load shedding with a
	// Retry-After hint rather than unbounded queueing.
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	resp, body := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated prove: status %d, want 429 (%s)", resp.StatusCode, body["error"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	for i := 0; i < cap(srv.sem); i++ {
		<-srv.sem
	}

	// Unknown models and bad bodies are client errors, not crashes.
	resp, _ = postJSON(t, ts, "/prove", proveRequest{Model: "no-such-model"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model: status %d, want 400", resp.StatusCode)
	}
	httpResp, err := ts.Client().Post(ts.URL+"/prove", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", httpResp.StatusCode)
	}
}

func TestDaemonProveTimeout(t *testing.T) {
	cfg := testConfig("")
	cfg.ProveTimeout = time.Millisecond
	ts := httptest.NewServer(newServer(cfg))
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestDaemonRejectsBadShards pins the shard-count contract on both
// endpoints: a negative count, or one above the model's node count, is a
// 400 that leaves no cache slot behind.
func TestDaemonRejectsBadShards(t *testing.T) {
	srv := newServer(testConfig(""))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, shards := range []int{-3, 1000} {
		resp, body := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Shards: shards})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("prove shards=%d: status %d, want 400 (%s)", shards, resp.StatusCode, body["error"])
		}
		resp, body = postJSON(t, ts, "/verify", verifyRequest{Model: "dlrm-micro", Shards: shards})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("verify shards=%d: status %d, want 400 (%s)", shards, resp.StatusCode, body["error"])
		}
	}
	srv.mu.Lock()
	n := len(srv.systems)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("rejected shard counts left %d cache entries, want 0", n)
	}
}

// TestDaemonConcurrentTracedProves sends two traced proves at once: both
// must succeed, and each trace must count exactly the MSMs of a traced
// prove that ran alone.
func TestDaemonConcurrentTracedProves(t *testing.T) {
	ts := httptest.NewServer(newServer(testConfig("")))
	defer ts.Close()
	msmCount := func(body map[string]json.RawMessage) int64 {
		return unmarshalField[int64](t, unmarshalField[map[string]json.RawMessage](t, body, "trace"), "msm_count")
	}
	resp, body := postJSON(t, ts, "/prove", proveRequest{Model: "dlrm-micro", Seed: 1, Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solo traced prove: status %d: %s", resp.StatusCode, body["error"])
	}
	want := msmCount(body)

	// The goroutines only collect responses; all assertions run on the
	// test goroutine.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	status := make([]int, 2)
	bodies := make([]map[string]json.RawMessage, 2)
	for i := range errs {
		data, err := json.Marshal(proveRequest{Model: "dlrm-micro", Seed: int64(2 + i), Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/prove", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			status[i] = resp.StatusCode
			errs[i] = json.NewDecoder(resp.Body).Decode(&bodies[i])
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("concurrent traced prove %d: %v", i, errs[i])
		}
		if status[i] != http.StatusOK {
			t.Fatalf("concurrent traced prove %d: status %d: %s", i, status[i], bodies[i]["error"])
		}
		if got := msmCount(bodies[i]); got != want {
			t.Fatalf("concurrent traced prove %d counted %d MSMs, solo prove %d", i, got, want)
		}
	}
}

// TestDaemonServesLibraryStore pins the store contract the benchmark
// relies on: a store filled by zkml.Compile(...).Save and
// zkml.CompileSharded(..., 3, ...).Save is what the daemon loads for
// "mnist" and "mnist@3" — from the store, with zero set-up work — and a
// one-chunk /prove proof imports through zkml.LoadVerifier(...).ImportProof
// and checks with plonkish.Verify against the loaded verifying key.
func TestDaemonServesLibraryStore(t *testing.T) {
	keysDir := t.TempDir()
	cfg := testConfig(keysDir)
	cfg.Options.ScaleBits, cfg.Options.LookupBits, cfg.Options.MaxCols = 5, 9, 16
	spec, err := zkml.Model("mnist")
	if err != nil {
		t.Fatal(err)
	}
	g, sample := spec.Build(), spec.Input(1)
	sys, err := zkml.Compile(g, sample, cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Save(keysDir); err != nil {
		t.Fatal(err)
	}
	ssys, err := zkml.CompileSharded(g, sample, 3, cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ssys.Save(keysDir); err != nil {
		t.Fatal(err)
	}

	srv := newServer(cfg)
	for _, shards := range []int{1, 3} {
		e, err := srv.system("mnist", shards)
		if err != nil {
			t.Fatal(err)
		}
		if e.source != "store" {
			t.Fatalf("mnist at %d shards loaded from %q, want store", shards, e.source)
		}
		if !e.setup.IsZero() {
			t.Fatalf("mnist at %d shards: store load did set-up work: %+v", shards, e.setup)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	type modelInfo struct {
		Name   string `json:"name"`
		Source string `json:"source"`
	}
	listed := map[string]string{}
	for _, m := range unmarshalField[[]modelInfo](t, getJSON(t, ts, "/models"), "models") {
		listed[m.Name] = m.Source
	}
	if len(listed) != 2 || listed["mnist"] != "store" || listed["mnist@3"] != "store" {
		t.Fatalf("/models lists %v, want mnist and mnist@3 from the store", listed)
	}

	resp, body := postJSON(t, ts, "/prove", proveRequest{Model: "mnist", Seed: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: status %d: %s", resp.StatusCode, body["error"])
	}
	raw, err := base64.StdEncoding.DecodeString(unmarshalField[string](t, body, "proof"))
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := zkml.LoadVerifier(keysDir, g, sample, cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := verifier.ImportProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonkish.Verify(verifier.Keys.VK, proof.Instance, proof.Proof); err != nil {
		t.Fatalf("daemon proof rejected by the library verifier: %v", err)
	}
}
