// Package repro benchmarks map one-to-one onto the tables of the paper's
// evaluation (§9); `cmd/zkml-bench` prints the same results as formatted
// tables. Workloads are micro-scaled (see DESIGN.md §3): absolute times are
// not comparable to the paper's AWS runs, but the relative structure within
// each table is.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/transcript"
)

var benchFP = fixedpoint.Params{ScaleBits: 5, LookupBits: 9}

var (
	calibOnce  sync.Once
	benchCalib *costmodel.Calibration
)

func calibration() *costmodel.Calibration {
	calibOnce.Do(func() { benchCalib = costmodel.Calibrate(8, 10) })
	return benchCalib
}

func benchOptions(backend pcs.Backend) core.Options {
	opt := core.DefaultOptions(backend, benchFP)
	opt.MinCols, opt.MaxCols = 6, 16
	opt.Calibration = calibration()
	return opt
}

// compiled caches plan+keys per (model, backend, objective) so repeated
// benchmarks don't redo keygen.
type compiled struct {
	plan *core.Plan
	keys *core.Keys
	spec model.Spec
}

var (
	compileMu    sync.Mutex
	compileCache = map[string]*compiled{}
)

func compile(b *testing.B, name string, backend pcs.Backend, objective core.Objective) *compiled {
	b.Helper()
	key := name + "/" + backend.String() + "/" + string(objective)
	compileMu.Lock()
	defer compileMu.Unlock()
	if c, ok := compileCache[key]; ok {
		return c
	}
	spec, err := model.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions(backend)
	opt.Objective = objective
	plan, _, _, err := core.Optimize(spec.Build(), spec.Input(1), opt)
	if err != nil {
		b.Fatal(err)
	}
	keys, err := plan.Setup()
	if err != nil {
		b.Fatal(err)
	}
	c := &compiled{plan: plan, keys: keys, spec: spec}
	compileCache[key] = c
	return c
}

func compileFixed(b *testing.B, name string, cfg gadgets.Config) *compiled {
	b.Helper()
	key := name + "/fixed/" + string(cfg.Dot) + "/" + string(cfg.Arith) + "/" + string(cfg.ReLU)
	compileMu.Lock()
	defer compileMu.Unlock()
	if c, ok := compileCache[key]; ok {
		return c
	}
	spec, err := model.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.PlanFor(spec.Build(), spec.Input(1), cfg, pcs.KZG, calibration())
	if err != nil {
		b.Fatal(err)
	}
	keys, err := plan.Setup()
	if err != nil {
		b.Fatal(err)
	}
	c := &compiled{plan: plan, keys: keys, spec: spec}
	compileCache[key] = c
	return c
}

func benchProve(b *testing.B, c *compiled) {
	b.Helper()
	art, err := c.plan.Synthesize(c.spec.Input(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(c.plan.N), "rows")
	b.ReportMetric(float64(c.plan.Config.NumCols), "cols")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proof, err := plonkish.Prove(c.keys.PK, art.Instance, art.Witness)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(proof.Size()), "proof-bytes")
		}
	}
}

func benchVerify(b *testing.B, c *compiled) {
	b.Helper()
	art, err := c.plan.Synthesize(c.spec.Input(2))
	if err != nil {
		b.Fatal(err)
	}
	proof, err := plonkish.Prove(c.keys.PK, art.Instance, art.Witness)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plonkish.Verify(c.keys.VK, art.Instance, proof); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 6: end-to-end KZG proving and verification.

func BenchmarkTable6ProveKZG(b *testing.B) {
	for _, name := range []string{"mnist", "dlrm-micro", "twitter-micro", "gpt2-micro"} {
		b.Run(name, func(b *testing.B) { benchProve(b, compile(b, name, pcs.KZG, core.MinTime)) })
	}
}

func BenchmarkTable6VerifyKZG(b *testing.B) {
	for _, name := range []string{"mnist", "dlrm-micro"} {
		b.Run(name, func(b *testing.B) { benchVerify(b, compile(b, name, pcs.KZG, core.MinTime)) })
	}
}

// Table 7: end-to-end IPA proving and verification (larger proofs, slower
// verification).

func BenchmarkTable7ProveIPA(b *testing.B) {
	for _, name := range []string{"mnist", "dlrm-micro"} {
		b.Run(name, func(b *testing.B) { benchProve(b, compile(b, name, pcs.IPA, core.MinTime)) })
	}
}

func BenchmarkTable7VerifyIPA(b *testing.B) {
	for _, name := range []string{"mnist", "dlrm-micro"} {
		b.Run(name, func(b *testing.B) { benchVerify(b, compile(b, name, pcs.IPA, core.MinTime)) })
	}
}

// Table 8: fixed-point circuit execution (the arithmetization whose
// accuracy the table reports).

func BenchmarkTable8CircuitInference(b *testing.B) {
	spec, err := model.Get("mnist")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Build()
	in := spec.Input(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := gadgets.NewBuilder(gadgets.DefaultConfig(16, benchFP))
		if _, err := g.RunCircuit(bd, in); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 9: ZKML vs the prior-work-style baseline prover on a CNN.

func BenchmarkTable9ZKML(b *testing.B) {
	benchProve(b, compile(b, "resnet-micro", pcs.KZG, core.MinTime))
}

func BenchmarkTable9Baseline(b *testing.B) {
	benchProve(b, compileFixed(b, "resnet-micro", core.BaselineConfig(benchFP)))
}

// Table 10: optimizer-chosen layout vs a fixed wide configuration.

func BenchmarkTable10Optimized(b *testing.B) {
	benchProve(b, compile(b, "mnist", pcs.KZG, core.MinTime))
}

func BenchmarkTable10FixedConfig(b *testing.B) {
	benchProve(b, compileFixed(b, "mnist", gadgets.DefaultConfig(16, benchFP)))
}

// Table 11: full gadget set vs the single-implementation set.

func BenchmarkTable11FixedGadgets(b *testing.B) {
	benchProve(b, compileFixed(b, "dlrm-micro", core.FixedGadgetConfig(16, benchFP)))
}

func BenchmarkTable11FullGadgets(b *testing.B) {
	benchProve(b, compile(b, "dlrm-micro", pcs.KZG, core.MinTime))
}

// Table 12 / §9.4: optimizer runtime with and without pruning.

func BenchmarkTable12OptimizerPruned(b *testing.B) {
	spec, _ := model.Get("mnist")
	g := spec.Build()
	in := spec.Input(1)
	opt := benchOptions(pcs.KZG)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.Optimize(g, in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable12OptimizerNoPrune(b *testing.B) {
	spec, _ := model.Get("mnist")
	g := spec.Build()
	in := spec.Input(1)
	opt := benchOptions(pcs.KZG)
	opt.Prune = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.Optimize(g, in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 13: single-row vs multi-row gadget variants on the adder/max/dot
// synthetic model at 10 columns.

func BenchmarkTable13(b *testing.B) {
	variants := []struct {
		name string
		mod  func(*gadgets.Config)
	}{
		{"SingleRow", func(c *gadgets.Config) {}},
		{"MultiRowAdder", func(c *gadgets.Config) { c.MultiAdd = true }},
		{"MultiRowMax", func(c *gadgets.Config) { c.MultiMax = true }},
		{"MultiRowDot", func(c *gadgets.Config) { c.MultiDot = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := gadgets.DefaultConfig(10, benchFP)
			cfg.UseConstDot = false
			v.mod(&cfg)
			bd := gadgets.NewBuilder(cfg)
			experiments.BuildAdderMaxDot(bd, 96)
			if err := bd.Err(); err != nil {
				b.Fatal(err)
			}
			art, err := bd.Finalize(bd.MinN())
			if err != nil {
				b.Fatal(err)
			}
			pk, _, err := plonkish.Setup(art.CS, art.N, art.Fixed, pcs.KZG)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plonkish.Prove(pk, art.Instance, art.Witness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Table 14: runtime-optimized vs size-optimized plans.

func BenchmarkTable14RuntimeOptimized(b *testing.B) {
	benchProve(b, compile(b, "dlrm-micro", pcs.KZG, core.MinTime))
}

func BenchmarkTable14SizeOptimized(b *testing.B) {
	benchProve(b, compile(b, "dlrm-micro", pcs.KZG, core.MinSize))
}

// BenchmarkProveParallelism measures the worker-pool proving engine at
// several worker counts (EXPERIMENTS.md records the scaling). On a 1-vCPU
// host the counts >1 only measure scheduling overhead; run on a multicore
// machine for real scaling numbers.
func BenchmarkProveParallelism(b *testing.B) {
	c := compile(b, "mnist", pcs.KZG, core.MinTime)
	art, err := c.plan.Synthesize(c.spec.Input(2))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			parallel.SetWorkers(workers)
			defer parallel.SetWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plonkish.Prove(c.keys.PK, art.Instance, art.Witness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIPAVerify isolates the IPA opening check — the verifier-side
// cost that makes IPA proofs cheap to produce but linear-time to verify
// (Table 7's verification column). It covers the s-vector bit-flip DP,
// whose per-round x_j^2 values are now computed once instead of inside the
// O(n) inner loop.
func BenchmarkIPAVerify(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := pcs.NewIPA(n)
			p := make([]ff.Element, n)
			for i := range p {
				p[i] = ff.NewElement(uint64(i)*7 + 3)
			}
			c := s.Commit(p, nil)
			z := ff.NewElement(12345)
			o := s.Open(transcript.New("bench"), p, z, nil)
			y := polyEval(p, z)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Verify(transcript.New("bench"), c, z, y, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// polyEval evaluates a coefficient-form polynomial at z (Horner).
func polyEval(p []ff.Element, z ff.Element) ff.Element {
	var y ff.Element
	for i := len(p) - 1; i >= 0; i-- {
		y.Mul(&y, &z)
		y.Add(&y, &p[i])
	}
	return y
}

// §9.5: the cost estimator itself (it must be orders of magnitude cheaper
// than proving for Algorithm 1 to pay off).

func BenchmarkCostEstimate(b *testing.B) {
	c := compile(b, "mnist", pcs.KZG, core.MinTime)
	layout := c.plan.Layout
	calib := calibration()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calib.EstimateProvingTime(layout)
	}
}

// BenchmarkPow2Cliff quantifies §3's observation that "even a single extra
// row over a power of two would cause the proving time to nearly double":
// the same circuit proven on a 2^k grid vs the next power of two.
func BenchmarkPow2Cliff(b *testing.B) {
	for _, rows := range []int{1 << 10, 1 << 11} {
		b.Run(map[int]string{1 << 10: "2^10", 1 << 11: "2^11"}[rows], func(b *testing.B) {
			cfg := gadgets.DefaultConfig(10, benchFP)
			bd := gadgets.NewBuilder(cfg)
			experiments.BuildAdderMaxDot(bd, 64)
			if err := bd.Err(); err != nil {
				b.Fatal(err)
			}
			if bd.MinN() > rows {
				b.Fatalf("workload needs %d rows, grid %d too small", bd.MinN(), rows)
			}
			art, err := bd.Finalize(rows)
			if err != nil {
				b.Fatal(err)
			}
			pk, _, err := plonkish.Setup(art.CS, art.N, art.Fixed, pcs.KZG)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plonkish.Prove(pk, art.Instance, art.Witness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
