# Tier-1 verification and repo tooling. `make verify` is the gate every
# change must pass; it is exactly what CI and the roadmap call tier-1.
# `make ci` chains the same targets the GitHub workflow runs, in the same
# order, so a local pass and a CI pass cannot drift.

GO ?= go
# Benchtime for bench-json: 1s for a real baseline, overridden to 1x by
# bench-smoke so CI gets a structural artifact without the full cost.
BENCHTIME ?= 1s
# Output of bench-json. bench-smoke redirects it to BENCH_SMOKE.json
# (untracked) so a smoke run can never clobber the checked-in 1s baseline
# BENCH_PR10.json with single-iteration noise. BENCH_PR3/PR4/PR5/PR7.json
# are kept for the perf trajectory.
BENCHJSON_OUT ?= BENCH_PR10.json
# Baseline bench-diff compares against, and the regression thresholds.
# Smoke runs are single-iteration, so the defaults are deliberately loose:
# the diff is a tripwire for order-of-magnitude regressions and alloc-count
# jumps, not a timing oracle (diff two 1s bench-json runs for that).
BENCH_BASELINE ?= BENCH_PR10.json
BENCH_DIFF_THRESHOLD ?= 1.0
BENCH_DIFF_ALLOCS_THRESHOLD ?= 0.25

# Coverage gate for `make cover`. The module sits at ~83% total today;
# the floor trips if a PR drops it below 80%.
COVER_PROFILE ?= cover.out
COVER_FLOOR ?= 80

# Profile capture knobs: which benchmark `make profile` drives and for how
# long. The default targets the tracker inner loop — the profile that
# motivated the SigTable underflow shortcut (see DESIGN.md).
PROFILE_BENCH ?= BenchmarkTrackerObserve
PROFILE_TIME ?= 2s

# Fuzzing budget per target for `make fuzz-smoke`. go test -fuzz runs one
# target at a time, so the target's wall time is roughly FUZZTIME times
# the number of Fuzz* targets, plus building every package's tests once to
# list them (about 105s in all at 10s on 2 CPUs with a warm build cache).
FUZZTIME ?= 10s

.PHONY: verify build test lint detlint detlint-json race stress fuzz-smoke cover bench bench-smoke bench-json bench-diff profile loadtest loadtest-evict loadtest-follow loadtest-query fault-log clean ci

ci: verify lint race stress fuzz-smoke cover bench-smoke loadtest loadtest-evict loadtest-follow loadtest-query fault-log ## everything .github/workflows/ci.yml runs

verify: build test ## tier-1: go build ./... && go test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/lint/testdata holds detlint fixture packages that are
# intentionally non-idiomatic (one is deliberately unformatted); the go
# tool already ignores testdata directories for vet/build, and the gofmt
# sweep filters them out the same way. Real code keeps full coverage.
lint: ## gofmt cleanliness + go vet + detlint determinism contract
	@out="$$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/detlint ./...

detlint: ## static determinism-contract check (R1-R5), human-readable
	$(GO) run ./cmd/detlint ./...

detlint-json: ## detlint findings as detlint.json (CI artifact); still exits non-zero on findings
	@$(GO) run ./cmd/detlint -json ./... > detlint.json; rc=$$?; \
	echo "wrote detlint.json"; exit $$rc

race: ## race-detector pass over the whole module
	$(GO) test -race ./...

# The concurrent packages again under the race detector, repeated at
# several GOMAXPROCS values: a test that only passes under one scheduling
# fails here instead of on the next machine.
stress: ## race-detector pass over the concurrent packages, 3 runs at -cpu=1,2,4
	$(GO) test -race -count=3 -cpu=1,2,4 ./internal/stream/ ./internal/serve/ ./cmd/attritiond/

# Every Fuzz* target in the module, each fuzzed for $(FUZZTIME). Plain
# `go test` (tier-1) only replays the seed corpora; this target actually
# mutates inputs. A failing input lands in the package's testdata/fuzz/
# directory, where `go test` replays it from then on.
fuzz-smoke: ## fuzz every Fuzz* target in the module for $(FUZZTIME) each
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

cover: ## module-wide coverage profile with a total-coverage floor
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "coverage below floor"; exit 1; }

bench: ## full benchmark suite (population + shard sweeps included)
	$(GO) test -run '^$$' -bench . -benchmem .

bench-smoke: ## one iteration of every benchmark (emits BENCH_SMOKE.json), so benches can't bit-rot
	$(MAKE) bench-json BENCHTIME=1x BENCHJSON_OUT=BENCH_SMOKE.json

bench-json: ## machine-readable benchmark results -> $(BENCHJSON_OUT)
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . > bench-raw.out
	$(GO) run ./cmd/benchjson < bench-raw.out > $(BENCHJSON_OUT).tmp
	@mv $(BENCHJSON_OUT).tmp $(BENCHJSON_OUT)
	@rm -f bench-raw.out
	@echo "wrote $(BENCHJSON_OUT)"

loadtest: ## attritiond smoke load test: in-process daemon, concurrent replay, exact verification vs a sequential Monitor
	$(GO) run ./cmd/loadgen -customers 120 -months 16 -conns 4 -batch 150 -queries 300

loadtest-evict: ## loadtest with a retention horizon + TTL sweeps: -churn silences customers so evictions actually fire, and the eviction counters must match the sequential replay exactly
	$(GO) run ./cmd/loadgen -customers 120 -months 24 -conns 4 -batch 150 -queries 300 \
		-retention 2 -ttl-interval 5ms -churn 0.3

loadtest-follow: ## loadtest in follow mode: loadgen appends STB1 segments, the daemon tails them, the chain is compacted mid-tail (live resync), and verification stays exact
	$(GO) run ./cmd/loadgen -customers 120 -months 16 -batch 150 -queries 300 -follow

loadtest-query: ## loadtest with batch stability queries interleaved at every month barrier, each answer exact-verified against a shadow sequential replay
	$(GO) run ./cmd/loadgen -customers 120 -months 16 -conns 4 -batch 150 -queries 300 -query-mix

profile: ## capture cpu.pprof + heap.pprof from $(PROFILE_BENCH); inspect with `go tool pprof cpu.pprof`
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime $(PROFILE_TIME) \
		-cpuprofile cpu.pprof -memprofile heap.pprof -o profile-bench.test .
	@echo "wrote cpu.pprof, heap.pprof (binary: profile-bench.test)"

fault-log: ## verbose fault-injection + crash-recovery test log -> faultlog.txt (CI artifact); still exits non-zero on failure
	@$(GO) test -v -count=1 \
		-run 'Crash|Fault|Injector|TornTail|Corrupt|Truncat|StaleTmp|Shrunk|Resync|Panic|Degrad' \
		./internal/faultfs/ ./internal/store/ ./internal/stream/ ./internal/serve/ > faultlog.txt; rc=$$?; \
	echo "wrote faultlog.txt"; exit $$rc

clean: ## drop generated/untracked artifacts (coverage, smoke benches, lint + fault logs) and the Go build cache for this module
	$(GO) clean ./...
	rm -f $(COVER_PROFILE) BENCH_SMOKE.json bench-raw.out bench-diff.txt detlint.json faultlog.txt
	rm -f BENCH_PR*.json.tmp BENCH_SMOKE.json.tmp
	rm -f cpu.pprof heap.pprof profile-bench.test

bench-diff: ## diff smoke results (regenerated when absent) against $(BENCH_BASELINE); writes bench-diff.txt, exits non-zero on regression
	@test -f BENCH_SMOKE.json || $(MAKE) bench-smoke
	@$(GO) run ./cmd/benchjson diff \
		-threshold $(BENCH_DIFF_THRESHOLD) -allocs-threshold $(BENCH_DIFF_ALLOCS_THRESHOLD) \
		$(BENCH_BASELINE) BENCH_SMOKE.json > bench-diff.txt; \
	rc=$$?; cat bench-diff.txt; exit $$rc
