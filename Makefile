# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race fuzz lint ci smoke plancompare bench bench-json bench-gate experiments quick-experiments cover

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./... -timeout 1800s

# Race-check the concurrent parts of the tree: the survey worker pools,
# the covert-channel harness, the adaptive planner and the telemetry
# layer, plus the ILP package whose enumeration they all call
# concurrently — and the goroutine-leak check over cancelled
# enumerations and maps (mirrors the CI race job).
race:
	go test -race ./internal/ilp/ ./internal/experiments/ ./internal/covert/ ./internal/plan/ ./internal/obs/ -timeout 1800s
	go test -race -run 'TestEnumerateCancellation|TestMapMachineCancel' -count=1 ./internal/ilp/ . -timeout 300s

# Enumerate against exhaustive enumeration, the resumable
# Enumerator against fresh enumeration, the observation model against
# itself, and the canonical form and cache fingerprint against their
# invariants, beyond the seed corpora (mirrors the fuzz steps of the CI
# race job).
fuzz:
	go test -run XXX -fuzz FuzzEnumerateBruteForce -fuzztime 30s ./internal/ilp
	go test -run XXX -fuzz FuzzEnumerateResume -fuzztime 30s ./internal/ilp
	go test -run XXX -fuzz FuzzObservationModel -fuzztime 30s ./internal/route
	go test -run XXX -fuzz FuzzCanonical -fuzztime 30s ./internal/locate
	go test -run XXX -fuzz FuzzFingerprintOrder -fuzztime 30s ./internal/locate

# Mirrors the lint jobs of .github/workflows/ci.yml: go vet, staticcheck
# (skipped with a notice when the binary is absent — install it with
# go install honnef.co/go/tools/cmd/staticcheck@2024.1.1) and the repo's
# own coremaplint analyzers (see DESIGN.md §7). coremaplint must run from
# inside the module: its source importer resolves coremap/internal/...
# through the local build context.
lint:
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH, skipping (CI runs it)"; \
	fi
	go run ./cmd/coremaplint ./...

# Everything the CI workflow runs, in one local invocation.
ci: all race fuzz smoke lint

# The CI smoke job: the full quick reproduction must exit 0 (this
# includes plancompare, the adaptive-planner acceptance gate, and the
# quick survey's exact, proven, deterministic map).
smoke:
	go run ./cmd/experiments -exp all -quick

# The planner acceptance gate alone: planned vs exhaustive survey on one
# 8259CL and one 6354 instance — byte-identical maps, and ≤ 1/3 of the
# host operations on the 8259CL.
plancompare:
	go run ./cmd/experiments -exp plancompare

bench:
	go test -bench=. -benchmem -timeout 3600s .

# Machine-readable benchmark archive: the full -bench run converted to
# BENCH_<date>.json (name → ns/op + custom metrics) for diffing across
# commits. See cmd/benchjson.
bench-json:
	go test -bench=. -benchmem -timeout 3600s . | tee /dev/stderr \
		| go run ./cmd/benchjson > BENCH_$$(date +%Y-%m-%d).json

# Benchmark regression gate (mirrors the CI bench-gate job): run every
# benchmark once, convert to JSON and diff against the newest checked-in
# BENCH_<date>.json. Direction-aware: fails on >60% regressions in the
# gated metrics (ns/op, allocs/op, host-ops/map up; bps-under-1pct
# down), never on improvements — generous because one iteration is
# timing-noisy; see cmd/benchdiff for the tight 15% default used
# against same-machine baselines. Wall time only gates benchmarks at or
# above benchdiff's 50ms ns-floor: below that, a single iteration
# measures timer overhead and co-tenant contention, not the code — the
# deterministic allocs/op and host-ops/map halves stay tight there.
bench-gate:
	GOMAXPROCS=4 go test -bench=. -benchmem -benchtime=1x -run XXX -timeout 1800s . \
		| go run ./cmd/benchjson > /tmp/coremap-bench.json
	go run ./cmd/benchdiff -current /tmp/coremap-bench.json -threshold 0.60

# Full-size reproduction of every table and figure (paper parameters).
experiments:
	go run ./cmd/experiments -exp all -csv results_csv

quick-experiments: smoke

cover:
	go test ./internal/... . -cover -timeout 1800s
