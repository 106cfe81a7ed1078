# Standard entry points for local development and CI.
#
#   make ci          vet + build + full test suite + race detector on the
#                    concurrency-sensitive packages + short fuzz pass on the
#                    untrusted-input decoders + kernel benchmark smoke run
#                    + the nested zkbench module's vet and tests (what CI runs)
#   make test        full test suite only
#   make race        race detector on the proving engine packages and the
#                    daemon's concurrent traced-prove test
#   make zkbench-check vet + test the nested benchmark module (zkbench/),
#                    which `go build ./...` does not reach
#   make fuzz-smoke  each fuzz target briefly, from the committed corpora
#   make bench       prover benchmarks (see EXPERIMENTS.md)
#   make bench-smoke kernel benchmarks once each, so bench code can't rot
#   make trace-smoke fit the cost model from traced proves, prove twice more
#                    with tracing (compiled, then loaded from the key store),
#                    and gate both trace reports on cost-model accuracy
#                    (trace-check -max-rel-err)
#   make daemon-smoke bring up the zkmld proving daemon, prove + verify over
#                    HTTP, and assert the warm path does zero keygen/SRS
#                    work while /stats surfaces the request trace
#   make shard-smoke sharded (layer-wise) mnist prove + verify end to end on
#                    both backends via the CLI (DESIGN.md §16), plus a
#                    one-chunk round trip across both -shards spellings
#   make lint        zkml-lint over the whole module (fsio-atomic,
#                    determinism, panic-decode; see DESIGN.md §15)
#   make audit-smoke static circuit audit (`zkml audit`) of every bundled
#                    model on both backends; fails on any error finding

GO ?= go

# Packages whose tests exercise the parallel proving engine; these run
# under the race detector in CI.
RACE_PKGS = ./internal/parallel/ ./internal/poly/ ./internal/curve/ ./internal/pcs/ ./internal/plonkish/

# Untrusted-input fuzz targets (DESIGN.md §9) as package:Target pairs; `go
# test` allows one -fuzz pattern per invocation, so fuzz-smoke loops.
FUZZ_TARGETS = \
	./internal/plonkish/:FuzzProofUnmarshal \
	./internal/plonkish/:FuzzVerify \
	./internal/plonkish/:FuzzKeyMaterialUnmarshal \
	./internal/model/:FuzzModelLoad \
	./internal/curve/:FuzzPointSetBytes \
	./internal/curve/:FuzzGLVDecompose \
	./internal/core/:FuzzDecodeArtifact \
	./zkml/:FuzzImportProof
FUZZTIME ?= 5s

.PHONY: ci vet build test race fuzz-smoke bench bench-smoke trace-smoke daemon-smoke shard-smoke lint audit-smoke zkbench-check

ci: vet lint build test race audit-smoke fuzz-smoke bench-smoke trace-smoke daemon-smoke shard-smoke zkbench-check

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; target=$${t#*:}; \
		echo "fuzz-smoke: $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run '^TestDaemonConcurrentTracedProves$$' ./cmd/zkmld/

# The benchmark (zkbench/) is a nested module outside `go build ./...`, so an
# API change that breaks it would otherwise only show when the benchmark runs.
zkbench-check:
	cd zkbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# One iteration of the kernel benchmarks: compiles and runs the bench code
# without measuring anything meaningful. -short keeps the commitment
# benchmarks at sizes that don't grow the shared SRS past CI budgets.
bench-smoke:
	$(GO) test -run '^$$' -short -bench 'BenchmarkFFT|BenchmarkMSM|BenchmarkFixedBaseMSM|BenchmarkCommit' -benchtime=1x ./internal/poly/ ./internal/curve/ ./internal/pcs/

# Fit the cost model from traced proves (calibration v2), prove once more
# with tracing, and check the report: the schema parses, every pipeline
# stage is present, the cost-model comparison is populated, and — the
# estimator-accuracy gate — the fitted model's total |rel_err| stays within
# the threshold (DESIGN.md §11/§12). The raw unfitted model sat at -0.83.
# The second traced prove loads its system from the key store the first one
# filled, so a loaded system must price its trace as well as a compiled one.
TRACE_MAX_REL_ERR ?= 0.5
trace-smoke:
	@tmp=$$(mktemp -t zkml-trace.XXXXXX.json); calib=$$(mktemp -t zkml-calib.XXXXXX.json); keys=$$(mktemp -d -t zkml-keys.XXXXXX); \
	$(GO) run ./cmd/zkml calibrate -fit -min-k 8 -max-k 12 -out $$calib && \
	ZKML_CALIBRATION=$$calib $(GO) run ./cmd/zkml prove -model mnist -scale-bits 5 -lookup-bits 9 -max-cols 16 -keys $$keys -trace $$tmp && \
	$(GO) run ./cmd/zkml trace-check -in $$tmp -max-rel-err $(TRACE_MAX_REL_ERR) && \
	ZKML_CALIBRATION=$$calib $(GO) run ./cmd/zkml prove -model mnist -scale-bits 5 -lookup-bits 9 -max-cols 16 -keys $$keys -trace $$tmp && \
	$(GO) run ./cmd/zkml trace-check -in $$tmp -max-rel-err $(TRACE_MAX_REL_ERR); \
	st=$$?; rm -rf $$tmp $$calib $$keys; exit $$st

# End-to-end daemon smoke check: start zkmld, prove and verify over HTTP,
# assert a warm prove does zero keygen/SRS-extension work (setup-work
# counters), a restart over the populated key store skips keygen entirely,
# and /stats reports the per-request trace.
daemon-smoke:
	$(GO) test -run 'TestDaemon' -count=1 -v ./cmd/zkmld/

# Repo-invariant linter (cmd/zkml-lint): atomic artifact writes, kernel
# determinism, panic-free untrusted decoders. Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/zkml-lint ./...

# Static circuit audit of every bundled model on both backends at the fast
# CI circuit parameters. `zkml audit` exits nonzero on any error-severity
# finding, so a layout with an unconstrained cell, dead gate, orphan copy,
# lookup gap, or degree overflow fails CI here — before any proving runs.
audit-smoke:
	$(GO) run ./cmd/zkml audit -all -backend both -scale-bits 5 -lookup-bits 9 -max-cols 16

# Sharded proving smoke check (DESIGN.md §16): split mnist into 3 chunks,
# prove the chunks in parallel, and verify the per-chunk proofs plus the
# boundary-commitment chain — on both backends, through the exported proof
# bytes, at the fast CI circuit parameters. Then one round trip that proves
# without -shards and verifies with -shards 1 against the key store the
# prove filled: both spellings are the one one-chunk path and store entry.
shard-smoke:
	@tmp=$$(mktemp -t zkml-shard.XXXXXX.bin); keys=$$(mktemp -d -t zkml-shard-keys.XXXXXX); \
	for b in kzg ipa; do \
		echo "shard-smoke: backend $$b"; \
		$(GO) run ./cmd/zkml prove -model mnist -shards 3 -backend $$b -scale-bits 5 -lookup-bits 9 -max-cols 16 -out $$tmp && \
		$(GO) run ./cmd/zkml verify -model mnist -shards 3 -backend $$b -scale-bits 5 -lookup-bits 9 -max-cols 16 -in $$tmp || { rm -rf $$tmp $$keys; exit 1; }; \
	done; \
	echo "shard-smoke: one chunk, default -shards"; \
	$(GO) run ./cmd/zkml prove -model mnist -scale-bits 5 -lookup-bits 9 -max-cols 16 -keys $$keys -out $$tmp && \
	$(GO) run ./cmd/zkml verify -model mnist -shards 1 -scale-bits 5 -lookup-bits 9 -max-cols 16 -keys $$keys -in $$tmp; \
	st=$$?; rm -rf $$tmp $$keys; exit $$st
