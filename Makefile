# Convenience targets; everything is plain `go` underneath.

.PHONY: all check test test-race lint-registry lbcalc-smoke perfbench-test fuzz-smoke remote-smoke cluster-smoke bench bench-smoke bench-measure bench-baseline bench-json experiments experiments-full examples lint

# The hot-path micro-benchmarks: field exponentiation/inversion, ℓ₀
# sketch updates (scalar and banked — L0Update also matches
# L0UpdateBlock, FieldPow also matches FieldPowBlock), one ℓ₀ spec
# derivation at agm-forest's n = 256, the columnar bank
# cycle, the per-vertex AGM sketching cost, the dynamic-stream batch
# apply, the
# transcript codec on six ~2 MB AGM-family reports, one in-process
# /v1/run cache hit on a ~2 MB entry, the same hit read and decoded by
# the client from a loopback daemon, in-process /v1/run misses of the
# three multi-round protocols at miss-mixed's sizes, the AGM forest
# referee at
# sketch-batch's size (AGMDecode runs the scalar reference and the banked
# referee side by side), and the bulk 61-bit unpack kernel. bench-smoke
# and the informational CI job share this selection with
# bench/baseline.txt.
BENCH_HOT := FieldPow|FieldInv|L0Update|L0NewSpec|L0Sample|BankUpdate|AGMSketchVertex|DynStreamApply|WireReportEncodeLarge|WireReportDecodeLarge|ServerHitLarge|ServerMissAdaptive|ClientRunHitLarge|AGMDecode|BitioUnpack61
BENCH_HOT_PKGS := ./internal/field/ ./internal/l0/ ./internal/agm/ ./internal/dynstream/ ./internal/wire/ ./internal/server/ ./internal/client/ ./internal/bitio/

# The engine-level block-vs-scalar pair the bench guard watches, in
# internal/agm's tests next to the scalar reference sketcher; the ratio
# between the two is machine-independent enough to gate on.
BENCH_ENGINE := EngineBlockN1k|EngineScalarN1k

all: check

# check is the default gate: build + vet + tests, then the race detector
# over the concurrency-bearing packages (engine scheduler, the multi-round
# protocols it drives in parallel, the fault injector that perturbs them
# from inside the worker pool, and the AGM sketchers whose per-vertex and
# block paths share one arena pool across engine workers), then the
# registry drift guard, then the benchmark module's own vet and tests,
# then the block-vs-scalar performance guard (the allocation-regression
# tests — TestUpdateBlockZeroAlloc, TestBlockKernelsZeroAlloc,
# TestSketchVertexAllocs for a warm AGM sketch appended into a writer
# with room, the mst and sparsify message-size bounds, sparsify's
# TestDecodeAllocs for a referee that reads each level in place, and the
# wire codec's Test*Alloc* guards — already run inside `test`).
check: test test-race lint-registry lbcalc-smoke perfbench-test bench-guard

# bench-guard fails when the columnar block path regresses by more than
# 10% relative to the scalar reference sketcher, compared against the
# block/scalar ratio recorded in bench/baseline.txt. Ratios, not absolute
# ns/op, so the gate holds across machines.
bench-guard:
	./scripts/bench-guard.sh

# lint-registry fails when a registry drifts. Wire side: a package
# implementing the Sketch contract without self-registering, a
# registered name the wire cannot resolve (missing blank import in
# internal/wire/protocols.go), or a protocol with no smoke-sweep spec.
# Lowerbound side: an obligation or bound defined in source but not
# registered, a registered obligation missing from the lbcalc smoke
# fixture, or a distribution with no obligations.
lint-registry:
	go test -count=1 -run='TestEverySketchingPackageIsRegistered|TestEveryProtocolHasSmokeSpec|TestProtocolsSortedAndNonEmpty' ./internal/wire
	go test -count=1 -run='TestEveryDefinedObligationIsRegistered|TestEveryRegisteredObligationIsSmoked|TestEveryDistributionHasObligations' ./internal/lowerbound

# lbcalc-smoke byte-diffs lbcalc's analytic tables and full obligation
# sweep (seed 42) against committed fixtures — the lower-bound pipeline's
# end-to-end regression gate.
lbcalc-smoke:
	./scripts/lbcalc-smoke.sh

# perfbench-test vets and tests the service benchmark (perfbench/), a
# module of its own that the root `go test ./...` never builds, against
# the wire, server and client code it calls.
perfbench-test:
	cd perfbench && go vet ./... && go test ./...

test:
	go build ./... && go vet ./... && go test ./...

test-race:
	go test -race ./internal/engine/... ./internal/faults/... \
		./internal/matchproto/... ./internal/misproto/... ./internal/protocol/... \
		./internal/wire/... ./internal/server/... ./internal/client/... \
		./internal/cache/... ./internal/cluster/... ./internal/dynstream/... \
		./internal/agm/... ./internal/l0/...

# fuzz-smoke gives each fuzz target a short budget. It is the one list
# of fuzz targets: CI's fuzz job runs this target
# (.github/workflows/ci.yml).
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzReaderNeverPanics -fuzztime=30s ./internal/bitio
	go test -run='^$$' -fuzz=FuzzTranscriptCorruption -fuzztime=30s ./internal/faults
	go test -run='^$$' -fuzz=FuzzWireDecodeRunSpec -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz=FuzzWireDecodeTranscript -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz=FuzzWireDecodeRunStats -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz=FuzzWireDecodeRunReport -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz=FuzzAdaptiveFeedback -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz=FuzzDynStreamDecode -fuzztime=30s ./internal/dynstream
	go test -run='^$$' -fuzz=FuzzAGMForestDecode -fuzztime=30s ./internal/agm

# remote-smoke is the end-to-end service parity check CI runs: boot a
# refereed daemon on a loopback port, run the fixture sweep locally at
# -workers 1 and through the daemon at -workers 8, and diff the two
# outputs — transcript digests included — byte for byte. Any divergence
# between the in-process and networked referee fails the diff.
remote-smoke:
	./scripts/remote-smoke.sh

# cluster-smoke is remote-smoke's big sibling: three caching backends
# plus a coordinator, the fixture sweep through the cluster byte-diffed
# against the local run, then the same sweep again with a backend killed
# mid-sweep — failover must keep the output identical.
cluster-smoke:
	./scripts/cluster-smoke.sh

bench:
	go test -bench=. -benchmem ./...

# bench-smoke compiles and runs each hot-path micro-benchmark exactly
# once — a seconds-long sanity pass that catches "the benchmark no longer
# builds/runs" without pretending one iteration is a measurement.
bench-smoke:
	go test -run='^$$' -bench='$(BENCH_HOT)' -benchtime=1x -benchmem $(BENCH_HOT_PKGS)

# bench-measure runs the hot-path selection and the engine pair at the
# baseline's settings and writes the results to BENCH_OUT. The CI
# benchstat job runs it with BENCH_OUT set to a scratch file.
BENCH_OUT ?= bench/baseline.txt
bench-measure:
	mkdir -p $(dir $(BENCH_OUT))
	go test -run='^$$' -bench='$(BENCH_HOT)' -benchtime=100ms -count=5 -benchmem $(BENCH_HOT_PKGS) | tee $(BENCH_OUT)
	go test -run='^$$' -bench='$(BENCH_ENGINE)' -benchtime=1x -count=5 -benchmem ./internal/agm/ | tee -a $(BENCH_OUT)

# bench-baseline refreshes bench/baseline.txt, the checked-in reference
# the CI benchstat diff compares against. Re-run on a quiet machine after
# intentional performance work and commit the result.
bench-baseline:
	$(MAKE) bench-measure BENCH_OUT=bench/baseline.txt

# bench-json refreshes the committed BENCH_NNNN.json snapshot: the
# hot-path micro-benchmarks plus a short loadgen run against a caching
# daemon (latency percentiles + cache hit rate). Machine-dependent; re-run
# on a quiet machine and commit when the serving path changes.
bench-json:
	./scripts/bench-json.sh

experiments:
	go run ./cmd/sketchlab

experiments-full:
	go run ./cmd/sketchlab -scale full -seed 42

examples:
	@for ex in quickstart matchinglb misreduction coloring rsgraphs connectivity informationchain catalog; do \
		echo "=== $$ex ==="; go run ./examples/$$ex || exit 1; echo; \
	done

lint:
	gofmt -l . && go vet ./...
