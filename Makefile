# Development targets. `make check` is the full local gate: static
# analysis, the complete test suite under the race detector (including the
# parallel sweep engine's scheduling-independence tests), a one-iteration
# benchmark smoke pass, and a short fuzz pass over every fuzz target.

GO      ?= go
FUZZTIME ?= 10s
# Per-benchmark time for `make bench`. Short enough for a laptop pass;
# raise it when recording a baseline worth keeping.
BENCHTIME ?= 0.3s

.PHONY: build test vet race race-shard fuzz bench benchsmoke perfbench-test trace-smoke trace-stat serve-smoke mesh-smoke ftdc-smoke detector-matrix bench-diff check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrent surfaces: the sharded detection
# engine's differential matrix and shard/halo suites (shard-parallel loops
# at several worker widths), the incremental engine's repair workers,
# boundaryd's concurrent session registry, the detector zoo's
# metamorphic/vocabulary suites (every registered detector's parallel
# candidate loops), the default pipeline's parallel IFF traversal (the
# flood-kernel differential against the simulator and the observed
# DetectContext suites), the incremental surface engine's differential
# matrix (cached mesh repair at several worker widths), and the always-on
# metrics/FTDC capture path (atomic sinks racing a sampler goroutine).
# (The blanket `race` target covers these too; this target is the quick
# iteration loop.)
race-shard:
	$(GO) test -race -count=1 -run 'Shard|Incremental|Serve|Detector|Flood|DetectContext|Metrics|FTDC|Ring|Sampler|Mesh' ./internal/core ./internal/partition/shard ./internal/graph ./internal/serve ./internal/obs ./internal/obs/ftdc ./internal/mesh

# `go test -fuzz` accepts a single package per invocation, so each fuzz
# target gets its own run.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzCSRFromEdges -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run=^$$ -fuzz=FuzzFaultedDelivery -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzSpheresThrough3 -fuzztime=$(FUZZTIME) ./internal/geom
	$(GO) test -run=^$$ -fuzz=FuzzCircumcenter3 -fuzztime=$(FUZZTIME) ./internal/geom
	$(GO) test -run=^$$ -fuzz=FuzzLoadDiff -fuzztime=$(FUZZTIME) ./internal/obs/analyze
	$(GO) test -run=^$$ -fuzz=FuzzShardPartition -fuzztime=$(FUZZTIME) ./internal/partition/shard
	$(GO) test -run=^$$ -fuzz=FuzzFTDCReader -fuzztime=$(FUZZTIME) ./internal/obs/ftdc
	$(GO) test -run=^$$ -fuzz=FuzzMeshStitch -fuzztime=$(FUZZTIME) ./internal/mesh

# `make bench` records a machine-readable baseline (schema: internal/bench,
# documented in EXPERIMENTS.md) named for today's date.
bench:
	BENCH_JSON=BENCH_$$(date +%Y-%m-%d).json $(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) .

# One iteration of every benchmark, writing the baseline to a throwaway
# file — proves the suite and the BENCH_JSON writer stay runnable.
benchsmoke:
	BENCH_JSON=$$(mktemp -d)/BENCH_smoke.json $(GO) test -run '^$$' -bench . -benchtime 1x .

# The repo benchmark's own test (perfbench is a nested module, so the root
# `go test ./...` does not reach it): a tiny-scale run of every workload
# that checks each metric is emitted, BENCHMARK.json is in step, and every
# output check trips on a flipped verdict.
perfbench-test:
	cd perfbench && $(GO) test .

# End-to-end observability smoke: record a trace of a faulty asynchronous
# run at reduced scale, then let the run's own exit-time validation (and a
# non-empty-file check here) prove the JSONL matches the schema.
trace-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/experiment -run faults -async -scale 0.15 -trace $$dir/trace.jsonl && \
	test -s $$dir/trace.jsonl && echo "trace-smoke: OK ($$dir/trace.jsonl)"

# Flight-recorder analytics smoke: record a round-resolved trace, then run
# tracestat over it (curves + anomaly scan) and over the same trace twice
# as an identity diff, which must exit zero.
trace-stat:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/experiment -run faults -async -scale 0.15 -trace $$dir/trace.jsonl && \
	$(GO) run ./cmd/tracestat -trace $$dir/trace.jsonl -out $$dir/report.json && \
	$(GO) run ./cmd/tracestat -trace $$dir/trace.jsonl -against $$dir/trace.jsonl && \
	echo "trace-stat: OK"

# Boundary-server smoke: boundaryd's -smoke mode starts the server on an
# ephemeral port, POSTs a generated network over real HTTP, streams
# scripted delta batches, and diffs every served boundary-group result
# against a from-scratch detection of the same active node set — then
# re-exercises the deprecated unprefixed routes and a non-incremental
# detector session. Nonzero exit on any divergence, HTTP failure, or
# trace schema violation.
serve-smoke:
	$(GO) run ./cmd/boundaryd -smoke

# Incremental-mesh gate: the engine's differential matrix (cached repair
# vs from-scratch mesh.BuildAll, bit-identical after every scripted delta
# at several worker widths, with and without SPT reuse) plus the served
# mesh endpoint's own diffs, uncached. The boundaryd -smoke run above
# additionally probes GET /v1/sessions/{id}/mesh mid-delta-stream over
# real HTTP.
mesh-smoke:
	$(GO) test -count=1 -run 'TestMeshIncremental|TestServeMesh' ./internal/mesh ./internal/serve

# FTDC capture smoke: boundaryd's smoke harness under a fast-sampling
# binary metrics capture, then tracestat decoding the ring as a gate —
# at least two samples (start + exact final), a schema record, and a
# nonzero p99 for the serve and incremental stages.
ftdc-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/boundaryd -smoke -ftdc $$dir/cap -ftdc-interval 50ms && \
	$(GO) run ./cmd/tracestat -ftdc $$dir/cap -min-samples 2 -require-p99 serve,incremental && \
	echo "ftdc-smoke: OK"

# Cross-detector comparison smoke: every registered detector over the
# reduced standard fixtures, printing the precision/recall/cost table.
# Proves the -run detectors path and the whole registry stay runnable.
detector-matrix:
	$(GO) run ./cmd/experiment -run detectors -scale 0.15

# Tolerances for the bench regression gate. ns/op and allocs/op regress
# only when they *increase* beyond the fraction; the per-op work counters
# (balls tested, nodes checked) may drift either way by TOL_WORK — the
# instance-pool benchmarks average over i%16 pre-generated inputs, so the
# per-op mean shifts slightly whenever the harness picks an iteration
# count that is not a pool multiple. TOL_NS matches the measured noise
# ceiling of the reference VM (10–40%, see EXPERIMENTS.md): interleaved
# A/B of identical binaries shows the nanosecond-scale stages drifting
# ~30% between recording sessions, so a tighter wall-time gate fails on
# host state rather than code.
TOL_NS     ?= 0.40
TOL_ALLOCS ?= 0.10
TOL_WORK   ?= 0.02

# Regression gate: diff the two newest committed baselines (BENCH_*.json,
# named by date so lexical order is chronological). Fails when the newer
# baseline regressed beyond the tolerances above; a no-op until at least
# two baselines exist.
bench-diff:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort); \
	if [ $$# -lt 2 ]; then echo "bench-diff: need two BENCH_*.json baselines, have $$# — skipping"; exit 0; fi; \
	while [ $$# -gt 2 ]; do shift; done; \
	echo "bench-diff: $$1 -> $$2"; \
	$(GO) run ./cmd/tracestat -baseline $$2 -against $$1 \
		-tol-ns $(TOL_NS) -tol-allocs $(TOL_ALLOCS) -tol-work $(TOL_WORK)

check: vet race race-shard benchsmoke perfbench-test trace-smoke trace-stat serve-smoke mesh-smoke ftdc-smoke detector-matrix bench-diff fuzz

# The cache-defeating correctness gate for CI and pre-merge runs: static
# analysis plus the full test suite with result caching off, so every
# package really re-executes, then the end-to-end server and detector
# smokes and the benchmark's own test.
ci:
	$(GO) vet ./...
	$(GO) test -count=1 ./...
	$(MAKE) serve-smoke
	$(MAKE) mesh-smoke
	$(MAKE) ftdc-smoke
	$(MAKE) detector-matrix
	$(MAKE) perfbench-test
