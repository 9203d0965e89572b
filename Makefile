# Developer entry points. `make check` is the gate the parallel sweep
# engine must pass: vet clean, gofmt clean, and the full test suite under
# the race detector (the concurrency tests force multi-worker pools, so
# the parallel paths execute even on a single-CPU runner).

GO ?= go

.PHONY: build test check vet fmtcheck race servecheck jobcheck smoke artifactcheck tenantcheck tracecheck prunecheck techcheck wlcheck goldencheck fuzz vulncheck bench searchbench golden-update

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

# The serving stack's own gate: vet plus the server/cache/metrics packages
# under the race detector (a fast subset of `race` for iterating on the
# HTTP layer; `check` runs both, the subset being free once `race` passed).
servecheck:
	$(GO) vet ./...
	$(GO) test -race ./internal/server/... ./internal/cache/... ./internal/metrics/...

# The persistence + async-job gate: the content-addressed store, the job
# manager (including the kill-and-resume crash-recovery test), and the
# server's job endpoints, all under the race detector.
jobcheck:
	$(GO) vet ./...
	$(GO) test -race ./internal/store/... ./internal/job/...
	$(GO) test -race -run 'TestJob|TestAsync|TestStoreWarmed|TestCharacterization|TestEviction' ./internal/server/

# Boot `coldtall serve` with a persistent store, exercise the cache path
# over real HTTP, run an async job end to end (submit, poll, byte-diff
# against the synchronous artifact), scrape /metrics, and assert a clean
# SIGTERM drain.
smoke:
	./scripts/smoke.sh

# Catalog drift check: `coldtall artifacts list` and the served
# GET /v1/artifacts must enumerate the registry identically.
artifactcheck:
	./scripts/artifactcheck.sh

# The multi-tenant gate: the tenant package (buckets, budgets, key auth,
# hot reload), the fair-share scheduler (including the FIFO-vs-fair
# byte-identity differential), and the tenant-aware server surface
# (admission, streaming, drain) under the race detector, then the
# end-to-end script — two keys against a real serve: 401s, budget 429s
# with headers, the priority-inversion check, `jobs watch` SSE
# byte-identity, per-tenant metrics, and a SIGHUP key rotation.
tenantcheck:
	$(GO) vet ./...
	$(GO) test -race ./internal/tenant/...
	$(GO) test -race -run 'TestScheduler|TestInteractiveDequeues|TestFairMatchesFIFO|TestSubmitAsQuota|TestListPage|TestSubscribe' ./internal/job/
	$(GO) test -race -run 'TestRetryAfter|TestAdmissionPool|TestAPIKey|TestTenant|TestBudget|TestJobQuota|TestJobListFilter|TestJobStatus|TestDrainFlushes|TestStream|TestOpenAPI' ./internal/server/
	./scripts/tenantcheck.sh

# Trace-toolchain drift check through the built binaries: tracegen's text
# and binary outputs must simulate identically, llcsim -dump must emit the
# canonical .ctrace encoding, and sharded replay must match serial byte
# for byte.
tracecheck:
	./scripts/tracecheck.sh

# Differential proof of the pruned organization search: the full golden
# grid through both the exhaustive reference and the pruned path under
# -race (non-short, so the grid is not sampled), plus the
# bound-admissibility property test and the Pareto filter equivalence. Run
# it whenever internal/array physics or search code moves.
prunecheck:
	$(GO) test -race -count=1 -v \
		-run 'TestPrunedMatchesExhaustive|TestLowerBoundAdmissible|TestParetoFilterEquivalence|TestParetoDifferential' \
		./internal/array/

# Technology-backend gate: the gaincell/deepcryo/freqsweep artifacts
# byte-compared between the CLI and a real serve over HTTP, plus the new
# sweep axes (4 K gain cell, non-default core clock) characterized end to
# end through the built binary.
techcheck:
	./scripts/techcheck.sh

# Workload-intelligence gate: the signature, registry-alias, ingest,
# distill and upload packages under the race detector (dedup byte-identity,
# signature determinism, deletion ordering, chunk resume), plus the server
# surface for the new routes, then the end-to-end script — dedup round-trip
# with shared artifact bytes, distillation within tolerance, and a chunked
# upload interrupted and resumed to the exact trace content address.
wlcheck:
	$(GO) vet ./...
	$(GO) test -race ./internal/signature/... ./internal/workload/... ./internal/ingest/... ./internal/distill/...
	$(GO) test -race -run 'TestWorkload' ./internal/server/ ./cmd/coldtall/
	./scripts/wlcheck.sh

# Golden-artifact gate: every registered artifact re-generated and
# byte-compared against testdata/golden/ (no -update), so a physics or
# search change that shifts any number blocks merge explicitly.
goldencheck:
	$(GO) test -count=1 -run Golden .

# Fuzz smoke: a bounded run of each trace-facing fuzz target (the codec
# round-trip, the text parser, the Zipf table against math/rand.Zipf, the
# signature fold against a map-based reference, and the llcsim replay
# loop) plus the pruned-vs-exhaustive search differ. The corpora seeds
# cover the parser-hardening cases; CI runs this on every push.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBinaryDecode -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzTextRoundTrip -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzZipfMatchesStdlib -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzAccumulatorMatchesMap -fuzztime 30s ./internal/signature/
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime 30s ./cmd/llcsim/
	$(GO) test -run '^$$' -fuzz FuzzOptimizeConfig -fuzztime 30s ./internal/array/

# Known-vulnerability scan. Skipped (with a pointer) when govulncheck is
# not on PATH; the CI job installs it.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

check: vet fmtcheck race servecheck goldencheck

# Sweep-engine speedup benchmarks (serial vs parallel full-grid sweep),
# the Bloch–Grüneisen resistivity integral against its memo hit, a Zipf
# draw from math/rand.Zipf against the table (plus one table build), and
# the allocs/op of one organization search, one characterization and one
# signature-fold access.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluateAll' -benchtime 3x .
	$(GO) test -run '^$$' -bench 'BenchmarkArrayOptimize|BenchmarkArrayCharacterize' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkWireResistivity' -benchtime 2000x ./internal/tech/
	$(GO) test -run '^$$' -bench 'BenchmarkZipf' -benchmem ./internal/trace/
	$(GO) test -run '^$$' -bench 'BenchmarkAccumulatorObserve' -benchmem ./internal/signature/

# Organization-search benchmarks: pruned vs exhaustive, the per-candidate
# bound cost, and the staircase vs quadratic Pareto filter.
searchbench:
	$(GO) test -run '^$$' -bench 'BenchmarkOptimize|BenchmarkLowerBound|BenchmarkParetoFilter' -benchtime 5x ./internal/array/

# Refresh the golden CSV snapshots after an intentional model change, then
# review the diff under testdata/golden/ like any other code change.
golden-update:
	$(GO) test -run Golden -update .
