# PRORD build, test and correctness tooling.
#
#   make build   compile everything
#   make test    tier-1 tests, including the lint gate: TestRepoIsClean
#                runs the repo's determinism/concurrency analyzers
#                (internal/lint) over the whole module
#                and TestTablesGolden compares every experiment table with
#                internal/experiment/testdata/*.golden; after a change
#                that moves a simulated digit on purpose, rewrite them with
#                go test ./internal/experiment -run TablesGolden -update
#   make race    tests under the race detector (includes the storm,
#                churn and differential suites and the determinism
#                regressions)
#   make vet     go vet
#   make procs   the set-up tests (ReadAll, FromCLF, Mine, Sessions, the
#                navigation Tracker, the determinism tests and
#                TestTablesGolden) at GOMAXPROCS 1, 2 and 4: the
#                parse, sessionize and mine stages run
#                on every core, and their output must not depend on how
#                many there are; and the dispatch package's tests (its
#                storm, differential and stream-golden tests) at the
#                same counts: the core hands live file ids out in
#                first-touch order, and no decision may depend on it;
#                and the backend client's cancellation, hedge, deadline,
#                pool and shared-value tests at the same counts: an
#                attempt registers its abort only when its grace
#                deadline passes, a timing edge worth running on one P
#   make allocs  every allocation ratchet (the tests matching Allocs,
#                among them TestSessionScriptsAllocs, TestSessionChurnAllocs
#                and TestTrackerObserveAllocs' connection churn: per-session
#                state costs nothing past its slabs' high-water mark),
#                uncached; they skip under the race detector
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
#   make benchsmoke  every Benchmark* once (-benchtime 1x), so each keeps
#                compiling and running (BenchmarkSessionScripts and
#                BenchmarkSessionChurn among them); it times nothing
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

.PHONY: build test race vet procs allocs stress benchsmoke fuzz bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

procs:
	$(GO) test -count=1 -cpu 1,2,4 -run 'ReadAll|Reader|FromCLF|Mine|Train|Tracker|Sessions|Determinis|TablesGolden' \
		./internal/clf/ ./internal/trace/ ./internal/mining/ ./internal/experiment/ .
	$(GO) test -count=1 -cpu 1,2,4 ./internal/dispatch/
	$(GO) test -count=1 -cpu 1,2,4 -run 'Cancel|Hedge|HangUp|Deadline|Pool|Grace|Share' ./internal/httpfront/

allocs:
	$(GO) test -count=1 -run Allocs ./...

stress:
	$(GO) test -race -count=$(COUNT) -run '$(RUN)' $(PKG)

benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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

# test runs before race: the allocation ratchets (every test matching
# Allocs, which `make allocs` runs alone) skip under the race detector,
# whose instrumentation allocates.
ci: build vet test race procs benchsmoke fuzz bench
