# Developer entry points. `make check` is the gate the parallel sweep
# engine must pass: vet clean, gofmt clean, and the full test suite under
# the race detector (the concurrency tests force multi-worker pools, so
# the parallel paths execute even on a single-CPU runner).

GO ?= go

.PHONY: build test check vet fmtcheck race e2e prunecheck goldencheck fuzz vulncheck bench searchbench golden-update lines

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The end-to-end harness alone: builds coldtall, tracegen and llcsim once,
# then runs the smoke, artifacts, techaxes, trace, workloads and tenants
# scenarios against real `coldtall serve` processes (the CLI client and
# the served API must emit byte-identical artifacts). `test` and `race`
# run it too; one scenario: go test -count=1 -run TestE2E/tenants ./e2e/
e2e:
	$(GO) test -count=1 ./e2e/

# Differential proof of the pruned organization search: the full golden
# grid through both the exhaustive reference and the pruned path under
# -race (non-short, so the grid is not sampled), plus the
# bound-admissibility property test and the Pareto filter equivalence. Run
# it whenever internal/array physics or search code moves.
prunecheck:
	$(GO) test -race -count=1 -v \
		-run 'TestPrunedMatchesExhaustive|TestLowerBoundAdmissible|TestParetoFilterEquivalence|TestParetoDifferential' \
		./internal/array/

# Golden-artifact gate: every registered artifact re-generated and
# byte-compared against testdata/golden/, and the simulated traffic
# table (`coldtall traffic`) against internal/workload/testdata/golden/
# (no -update), so a physics, search or window change that shifts any
# number blocks merge explicitly.
goldencheck:
	$(GO) test -count=1 -run Golden . ./internal/workload

# Fuzz smoke: a bounded run of each trace-facing fuzz target (the codec
# round-trip, the canonical-stream check against decode + re-encode, the
# text parser, the Zipf table against math/rand.Zipf, the generators'
# copied source against math/rand's, the signature fold against a
# map-based reference, the cache kernel against its timestamp-LRU oracle,
# and the llcsim replay loop), the
# pruned-vs-exhaustive search differ, the design-point parser every front
# end resolves through (explorer.ParsePoint, which `eval -config` points
# also reach via the JSON study parser), the store's entry decoder, and
# the store's segment recovery (Open and Get over flipped, truncated and
# spliced segments), and the closed-form Bloch–Grüneisen resistivity
# against its Simpson oracle.
# The corpora seeds cover the parser-hardening cases; CI runs this on
# every push.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBinaryDecode -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzCanonicalBinary -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzTextRoundTrip -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzZipfMatchesStdlib -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzSourceMatchesStdlib -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzAccumulatorMatchesMap -fuzztime 30s ./internal/signature/
	$(GO) test -run '^$$' -fuzz FuzzCacheMatchesReference -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime 30s ./cmd/llcsim/
	$(GO) test -run '^$$' -fuzz FuzzOptimizeConfig -fuzztime 30s ./internal/array/
	$(GO) test -run '^$$' -fuzz FuzzParsePoint -fuzztime 30s ./internal/explorer/
	$(GO) test -run '^$$' -fuzz FuzzLoadStudyConfig -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntry -fuzztime 30s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzSegmentRecover -fuzztime 30s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzWireResistivity -fuzztime 30s ./internal/tech/

# Known-vulnerability scan. Skipped (with a pointer) when govulncheck is
# not on PATH; the CI job installs it.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

check: vet fmtcheck race goldencheck

# Sweep-engine speedup benchmarks (serial vs parallel full-grid sweep),
# the closed-form Bloch–Grüneisen resistivity against the 2000-panel
# Simpson rule it replaced, a Zipf draw from math/rand.Zipf against the
# table (plus one table build and one sampler over a shared table), ns
# per access of every profile's stand-in
# stream and one Profile.Generator build, the allocs/op of one
# organization search, one characterization and one signature-fold
# access, a 200k-access .ctrace replay through the Table I hierarchy, one
# round of nine .ctrace ingestions (CPU ms per upload), the store's index
# rebuild at Open over 10,000 records, and the async
# sweep job over the 64-point break-even grid with the store off and on
# (ms per sweep, store puts per sweep), and the first Table II after a
# cold and a store-warmed boot (the warm boot re-renders the body from
# char|).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluateAll' -benchtime 3x .
	$(GO) test -run '^$$' -bench 'BenchmarkArrayOptimize|BenchmarkArrayCharacterize' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkWireResistivity' -benchtime 2000x ./internal/tech/
	$(GO) test -run '^$$' -bench 'BenchmarkZipf' -benchmem ./internal/trace/
	$(GO) test -run '^$$' -bench 'BenchmarkProfileGenerators' -benchtime 0.2s -benchmem ./internal/workload/
	$(GO) test -run '^$$' -bench 'BenchmarkAccumulatorObserve' -benchmem ./internal/signature/
	$(GO) test -run '^$$' -bench 'BenchmarkReplayBinary' -benchmem ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkIngestRun' -benchtime 3x -benchmem ./internal/ingest/
	$(GO) test -run '^$$' -bench 'BenchmarkOpen' -benchtime 20x -benchmem ./internal/store/
	$(GO) test -run '^$$' -bench 'BenchmarkSweepJob' -benchtime 10x ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkWarmRestart' -benchtime 20x ./internal/server/

# Organization-search benchmarks: pruned vs exhaustive, the per-candidate
# bound cost, and the staircase vs quadratic Pareto filter.
searchbench:
	$(GO) test -run '^$$' -bench 'BenchmarkOptimize|BenchmarkLowerBound|BenchmarkParetoFilter' -benchtime 5x ./internal/array/

# Refresh the golden CSV snapshots after an intentional model change, then
# review the diff under both testdata/golden/ directories like any other
# code change. The package list goes before -update, which only the test
# binaries know.
golden-update:
	$(GO) test . ./internal/workload -run Golden -update

# Production Go line count: every tracked non-test .go file outside the
# perfbench harness, examples/ and testdata/ (fixture modules tests scan
# are test input). The round's "fewer lines" aim is read
# from this number rather than a hand-copied one.
lines:
	@git ls-files '*.go' | grep -v _test.go | grep -v -e ^perfbench/ -e ^examples/ -e testdata/ | xargs cat | wc -l
