# PRORD build, test and correctness tooling.
#
#   make build   compile everything
#   make test    tier-1 tests
#   make race    tests under the race detector (includes the storm,
#                churn and differential suites and the determinism
#                regressions)
#   make vet     go vet
#   make lint    the repo's custom determinism/concurrency analyzers,
#                gated on lint.baseline.json (any non-baselined finding
#                fails); writes prordlint.sarif for upload
#   make lint-baseline  deliberately regenerate lint.baseline.json from
#                current findings — a reviewed, committed act; never
#                run in CI
#   make stress  repeat a slice of the suite under the race detector to
#                hunt a flake: make stress RUN='Golden|Deterministic' PKG=./internal/cluster/ COUNT=20
#                (a developer tool, not part of ci: `make race` already
#                ran every test once)
#   make bench   the repo benchmark (BENCHMARK.json, bench/README.md):
#                the four workloads at their default length, failing
#                when a run is not correct — status, body length,
#                hit-rate band, schedule digest — never on this
#                machine's speed; leaves each run's final JSON line in
#                BENCH_<workload>.json
#   make fuzz    run every Fuzz* target for FUZZTIME (default 5s), one
#                target per invocation; a failing input lands in the
#                target's testdata/fuzz directory, to be committed under
#                a descriptive name once the bug it found is fixed
#   make ci      the full gate CI runs on every push and PR

GO ?= go

# stress parameters: a -run pattern, the packages to run it in, and how
# many times.
RUN ?= .
PKG ?= ./...
COUNT ?= 2

# fuzz parameter: how long each Fuzz* target runs.
FUZZTIME ?= 5s

.PHONY: build test race vet lint lint-baseline stress fuzz bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/prordlint -baseline lint.baseline.json -sarif prordlint.sarif ./...

# Regenerating the baseline grandfathers every current finding: do it
# only when deliberately accepting new debt, and commit the diff so the
# review shows exactly what was grandfathered. CI never runs this.
lint-baseline:
	$(GO) run ./cmd/prordlint -baseline lint.baseline.json -write-baseline ./...

stress:
	$(GO) test -race -count=$(COUNT) -run '$(RUN)' $(PKG)

# Targets are found by name, so a new Fuzz* function joins without an
# edit here. go test fuzzes one target per invocation.
fuzz:
	@grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' . | sort | while IFS=: read -r file decl; do \
		dir=$$(dirname "$$file"); name=$${decl#func }; \
		echo "fuzz: $$dir $$name"; \
		$(GO) test "$$dir" -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Timings are compared by the PR driver, parent against change on one
# machine; a number committed from another machine measures the machine.
# The harness exits non-zero when a run breaks down and reports a run
# that finished with wrong answers as "correct":false in its last line,
# so both are checked.
bench:
	@for w in proxy-hot conn-churn miss-bound sim-paper; do \
		out=$$($(GO) run ./bench -workload $$w -seed 1) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 > BENCH_$$w.json; \
		grep -q '"correct":true' BENCH_$$w.json || { echo "bench: $$w: run is not correct" >&2; exit 1; }; \
	done

# test runs before race: the allocation ratchets (TestRouteDoneAllocs,
# TestRunAllocsPerRequest, TestForwardAllocs) skip under the race
# detector, whose instrumentation allocates.
ci: build vet lint test race fuzz bench
