# Convenience targets; the source of truth is plain `go build/test/bench`.

.PHONY: build test vet lint race durability bench bench-smoke bench-compare

build:
	go build ./...

vet:
	go vet ./...

test: vet
	go test ./...

# Formatting gate, invariant suite + third-party static analysis
# (docs/invariants.md). oadb-vet builds from this repo and always runs;
# staticcheck and govulncheck run when installed (CI installs pinned
# versions).
lint: vet
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }
	go build -o bin/oadb-vet ./cmd/oadb-vet
	./bin/oadb-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping (CI runs it pinned)"; fi

# Race-enabled run of the packages with internal concurrency
# (morsel-parallel scans, txn machinery, group-commit WAL,
# the public db cursor layer, the network server and its scheduler).
# This list is canonical: CI runs this target rather than maintaining
# its own copy.
race:
	go test -race ./db ./internal/storage/colstore ./internal/exec/... ./internal/core ./internal/types ./internal/sql ./internal/txn ./internal/wal ./internal/sched ./internal/server ./internal/wire ./client

# Durability gauntlet: the kill-and-recover fault matrix, torn-tail
# property tests, and crash-recovery round trips, race-enabled.
durability:
	go test -race -run 'TestKillAndRecover|TestDir|TestRecover|TestTorn|TestFault|TestLog' ./internal/wal ./internal/core ./db

# Full E-series benchmark run (see scripts/bench.sh for knobs). Writes
# BENCH_local.* so a casual run never clobbers the committed baseline
# recording; to record a trajectory point, override:
#   make bench OUT_TXT=BENCH_pr5.txt OUT_JSON=BENCH_pr5.json
OUT_TXT ?= BENCH_local.txt
OUT_JSON ?= BENCH_local.json
bench:
	OUT_TXT=$(OUT_TXT) OUT_JSON=$(OUT_JSON) scripts/bench.sh

# Quick smoke: the E10/E13–E18 scoreboards at minimal iterations.
bench-smoke:
	go test -run '^$$' -bench 'E10_Execution' -benchtime=100x -benchmem .
	go test -run '^$$' -bench 'E13_JoinSort' -benchtime=3x -benchmem .
	go test -run '^$$' -bench 'E14_ParallelPipeline' -benchtime=3x -benchmem .
	go test -run '^$$' -bench 'E15_CommitThroughput' -benchtime=100x .
	go test -run '^$$' -bench 'E16_MixedWorkload' -benchtime=20x .
	go test -run '^$$' -bench 'E17_ScanSkipping' -benchtime=3x -benchmem .
	go test -run '^$$' -bench 'E18_JoinOrdering' -benchtime=3x -benchmem .

# Diff two bench.sh JSON recordings (quick trajectory view). Override
# for newer recordings: make bench-compare NEW=BENCH_pr5.json
OLD ?= BENCH_baseline.json
NEW ?= BENCH_pr4.json
bench-compare:
	scripts/bench_compare.sh $(OLD) $(NEW)
