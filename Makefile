# Tier-1 verification gate (see README.md): vet, build, the full suite
# under the race detector, and the determinism suite twice — the second
# -count exercises fresh goroutine schedules so an order-dependent
# reduction cannot pass by luck.
GO ?= go

.PHONY: verify vet build test race determinism fleet cover-serve cover-collective cover-hier bench bench-synth bench-obs bench-flitsim bench-warm perf-synth bench-floorplan bench-key bench-all fuzz

verify: vet build race determinism

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

determinism:
	$(GO) test -run TestDeterminism -count=2 ./...

# fleet is the design-fleet gate: the multi-replica e2e suite (consistent-
# hash sharding, forwarding, owner-down fallback, loop protection), the
# disk-store crash-safety suite, and the batch/lane/v1-surface tests, all
# under the race detector.
fleet:
	$(GO) test -race -count=1 -run 'TestFleet|TestPeerRing|TestDiskStore|TestBatch|TestBulk|TestV1|TestErrorEnvelope|TestLane|TestMemStore' ./internal/serve/

# cover-serve is the server coverage gate: the design server's e2e suite
# (plus the synth cancellation tests it depends on) must keep internal/serve
# at >= 80% line coverage. Writes COVER_serve.txt (the per-function
# breakdown) for the CI artifact.
cover-serve:
	$(GO) test -count=1 -coverprofile=cover_serve.out ./internal/serve/
	$(GO) tool cover -func=cover_serve.out | tee COVER_serve.txt
	@total=$$($(GO) tool cover -func=cover_serve.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/serve line coverage: $$total% (floor 80%)"; \
	awk "BEGIN {exit !($$total >= 80.0)}" || { echo "FAIL: coverage $$total% below the 80% floor"; exit 1; }

# cover-collective is the collective-generator coverage gate: the golden,
# property, error, and determinism suites must keep internal/collective at
# >= 85% line coverage. Writes COVER_collective.txt for the CI artifact.
cover-collective:
	$(GO) test -count=1 -coverprofile=cover_collective.out ./internal/collective/
	$(GO) tool cover -func=cover_collective.out | tee COVER_collective.txt
	@total=$$($(GO) tool cover -func=cover_collective.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/collective line coverage: $$total% (floor 85%)"; \
	awk "BEGIN {exit !($$total >= 85.0)}" || { echo "FAIL: coverage $$total% below the 85% floor"; exit 1; }

# cover-hier is the two-level chiplet coverage gate: the spec/partition/
# split suites, the golden designs, the flatten/replay tests, and the
# determinism pins must keep internal/hier at >= 85% line coverage. Writes
# COVER_hier.txt for the CI artifact.
cover-hier:
	$(GO) test -count=1 -coverprofile=cover_hier.out ./internal/hier/
	$(GO) tool cover -func=cover_hier.out | tee COVER_hier.txt
	@total=$$($(GO) tool cover -func=cover_hier.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/hier line coverage: $$total% (floor 85%)"; \
	awk "BEGIN {exit !($$total >= 85.0)}" || { echo "FAIL: coverage $$total% below the 85% floor"; exit 1; }

# bench-synth runs the synthesis hot-path benchmarks with allocation stats
# and writes BENCH_synth.json (a machine-readable summary) plus
# BENCH_synth.txt (the raw benchstat-compatible text).
bench-synth:
	$(GO) test -run '^$$' -bench 'Synthesize|FastColor|Coloring|ContentionPeriods|MaxClique' -benchmem \
		./internal/synth ./internal/coloring ./internal/model \
		| $(GO) run ./cmd/benchjson -o BENCH_synth.json -raw BENCH_synth.txt

# bench-obs is the telemetry overhead gate: it re-runs the synthesis
# benchmark (Observer unset, i.e. the nil fast path) together with the
# Observer microbenchmarks and fails if SynthesizeCG16 is more than 2%
# slower than the BENCH_synth.json baseline. Run it standalone to compare
# against the committed baseline, or via `make bench` to compare against a
# fresh same-machine bench-synth run.
# (SynthesizeCG16 is anchored so the reference-engine twin stays out: that
# benchmark exists for the perf-synth ratio gate, not the 2% obs budget.)
bench-obs:
	$(GO) test -run '^$$' -bench 'SynthesizeCG16$$|Observer' -benchmem \
		./internal/synth ./internal/obs \
		| $(GO) run ./cmd/benchjson -o BENCH_obs.json -raw BENCH_obs.txt \
			-baseline BENCH_synth.json -budget 2

# bench-flitsim is the simulator-engine speedup gate: it runs the flitsim
# benchmarks (the compute-gap-heavy CG pair plus the mesh/torus/crossbar
# workloads), writes BENCH_flitsim.json/.txt, and fails unless the
# event-driven engine beats the cycle-stepping reference by >= 10x on the
# gap-heavy trace. Both engines run in the same invocation on the same
# machine, so the ratio gate needs no committed baseline to be meaningful;
# the -baseline annotation (when BENCH_flitsim.json exists) additionally
# flags absolute ns/op regressions over 25%.
bench-flitsim:
	$(GO) test -run '^$$' -bench 'Simulate|Simulation' -benchmem ./internal/flitsim \
		| $(GO) run ./cmd/benchjson -o BENCH_flitsim.json -raw BENCH_flitsim.txt \
			-ratio 'BenchmarkSimulateCG16GapMeshReference:BenchmarkSimulateCG16GapMesh' -min-ratio 10 \
			$(if $(wildcard BENCH_flitsim.json),-baseline BENCH_flitsim.json -budget 25)

# bench-warm is the warm-start speedup gate: it runs the warm-start sweep
# benchmark pair (the same five CG-16 variants synthesized cold and seeded
# from a prior design), writes BENCH_warm.json/.txt, and fails unless the
# seeded path beats cold synthesis by >= 5x. Both sides run in the same
# invocation on the same machine, so the ratio gate needs no committed
# baseline; the -baseline annotation (when BENCH_warm.json exists)
# additionally flags absolute ns/op regressions over 25%.
bench-warm:
	$(GO) test -run '^$$' -bench 'WarmStartSweep' -benchmem ./internal/synth \
		| $(GO) run ./cmd/benchjson -o BENCH_warm.json -raw BENCH_warm.txt \
			-ratio 'BenchmarkWarmStartSweepCold:BenchmarkWarmStartSweepSeeded' -min-ratio 5 \
			$(if $(wildcard BENCH_warm.json),-baseline BENCH_warm.json -budget 25)

# perf-synth is the move-engine speedup gate: it runs the synthesis
# benchmarks together with their retained reference-engine twins
# (Options.ReferenceMoveEngine, the pre-incremental closure/alloc path the
# equivalence suite pins byte-identical) and fails unless the incremental
# engine wins by >= 2x ns/op and >= 5x allocs/op on both workloads. Both
# engines run in the same invocation on the same machine, so the ratio
# gate needs no committed baseline to be meaningful.
perf-synth:
	$(GO) test -run '^$$' -bench 'Synthesize(Figure1|CG16)(Reference)?$$' -benchtime 2s -benchmem \
		./internal/synth \
		| $(GO) run ./cmd/benchjson -o BENCH_perf_synth.json -raw BENCH_perf_synth.txt \
			-ratio 'BenchmarkSynthesizeFigure1Reference:BenchmarkSynthesizeFigure1' \
			-ratio 'BenchmarkSynthesizeCG16Reference:BenchmarkSynthesizeCG16' \
			-min-ratio 2 -min-alloc-ratio 5

# bench-floorplan is the placement speedup gate: it runs the floorplan
# benchmarks together with their map-based reference twins (the placer the
# flat-array one replaced, kept in reference_test.go and pinned
# plan-identical by TestPlaceMatchesReference) and fails unless the flat
# placer wins by >= 10x ns/op and >= 100x allocs/op on tree-broadcast-64 and
# CG-16. Both placers run in the same invocation on the same machine, so
# the gate needs no committed baseline to be meaningful.
bench-floorplan:
	$(GO) test -run '^$$' -bench 'Place(TreeBroadcast64|CG16)(Reference)?$$' -benchmem ./internal/floorplan \
		| $(GO) run ./cmd/benchjson -o BENCH_floorplan.json -raw BENCH_floorplan.txt \
			-ratio 'BenchmarkPlaceTreeBroadcast64Reference:BenchmarkPlaceTreeBroadcast64' \
			-ratio 'BenchmarkPlaceCG16Reference:BenchmarkPlaceCG16' \
			-min-ratio 10 -min-alloc-ratio 100

# bench-key is the cache-hit speedup gate: it runs the ring-allreduce-64
# key and decode benchmarks together with their oracle twins (the v1 text
# key kept in internal/serve/hash_test.go and the scanner decoder kept in
# internal/trace/reference_test.go, which the equivalence tests and
# FuzzDecodeMatchesReference pin to the new code) and fails unless Key wins
# by >= 5x ns/op and >= 100x allocs/op and Decode by >= 1.3x ns/op and
# >= 10x allocs/op. Both sides run in the same invocation on the same
# machine, so the gate needs no committed baseline to be meaningful.
bench-key:
	$(GO) test -run '^$$' -bench '(KeyRing64|DecodeRing64)(Reference)?$$' -benchmem ./internal/serve ./internal/trace \
		| $(GO) run ./cmd/benchjson -o BENCH_key.json -raw BENCH_key.txt \
			-ratio 'BenchmarkKeyRing64Reference:BenchmarkKeyRing64:5:100' \
			-ratio 'BenchmarkDecodeRing64Reference:BenchmarkDecodeRing64:1.3:10'

bench: bench-synth bench-obs bench-flitsim bench-warm

bench-all:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# fuzz runs every fuzz target for 30s. The two decoder targets bound input
# minimization: left at its 60s default, minimizing an interesting input
# near the 1 MiB line cap (or a slow-to-generate workload) stalls every
# worker for the rest of the run.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 30s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzFingerprint -fuzztime 30s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzCollectiveConfig -fuzztime 30s ./internal/collective
	$(GO) test -run '^$$' -fuzz FuzzPartition -fuzztime 30s ./internal/hier
	$(GO) test -run '^$$' -fuzz FuzzDecodeMatchesReference -fuzztime 30s -fuzzminimizetime 100x ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzDesignRequest -fuzztime 30s -fuzzminimizetime 100x ./internal/serve
