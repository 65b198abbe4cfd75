GO ?= go

.PHONY: build test test-short race vet lint lint-fix cover fuzz verify verify-short golden bench bench-baseline bench-diff obs-overhead loadtest slo-report scale-sweep

build:
	$(GO) build ./...

# cosmiclint enforces the pipeline's determinism and hygiene invariants
# (no wall-clock/global-RNG reads, no naked goroutines, no map-order
# leaks, no discarded Close errors). See DESIGN.md "Determinism
# invariants".
lint:
	$(GO) run ./cmd/cosmiclint ./...

# Apply cosmiclint's deterministic rewrites in place, then fail if any
# file changed: committed code must never need the fixer. Detects the
# fixer's own "fixed <file>" reports rather than git status, so unrelated
# uncommitted work doesn't trip it; unfixable findings fail the lint run
# itself.
lint-fix:
	@out="$$($(GO) run ./cmd/cosmiclint -fix ./... 2>&1)"; status=$$?; \
	printf '%s\n' "$$out"; \
	if printf '%s\n' "$$out" | grep -q '^cosmiclint: fixed '; then \
		echo "lint-fix: fixer rewrote files; review and commit them"; exit 1; \
	fi; \
	exit $$status

# Coverage floors: internal/lint >= 85%, internal/artifact >= 80%,
# internal/obs >= 88%, internal/spacetrack >= 80%, internal/loadsim >= 80%,
# internal/constellation >= 80%, internal/core >= 80%,
# internal/incremental >= 80%, internal/tle >= 80%, internal/dst >= 90%,
# module total >= 70%.
cover:
	./scripts/cover.sh

# The serving-plane load baseline: the deterministic closed-loop harness
# against the storm-spike scenario (see EXPERIMENTS.md "Serving under load").
loadtest:
	$(GO) run ./cmd/spaceload -seed 42 -duration 10m -days 10

# The same baseline run rendered as the SLO burn-rate verdict table: one
# row per endpoint (ops, errors, burn rate, p50/p99 vs target, pass/fail)
# plus the flight-recorder reject summary and an overall verdict.
slo-report:
	$(GO) run ./cmd/spaceload -seed 42 -duration 10m -days 10 -slo-report

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Scaling-curve benchmarks for the worker-pool fan-outs (sim, build,
# associate). -cpu sweeps GOMAXPROCS, which the Parallelism=0 default follows.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetSim|BenchmarkDatasetBuild|BenchmarkAssociate' -cpu 1,2,4 -benchtime 2x .

# Pin the performance baseline: the fan-out benchmarks plus the
# incremental-engine pair with -benchmem, a cold-versus-warm cmd/figures
# render, and the 6k/30k/100k mega-constellation scale sweep, written to
# BENCH_PR9.json.
bench-baseline:
	./scripts/bench.sh

# The mega-constellation scale sweep on its own: stream 6k, 30k, and 100k
# satellites through the chunked pipeline and print wall time, sats/sec,
# and peak RSS for each — the flat-memory claim, measured.
scale-sweep:
	@$(GO) build -o /tmp/cosmicdance-sweep ./cmd/cosmicdance; \
	for sats in 6000 30000 100000; do \
		start=$$(date +%s.%N); \
		rss=$$(/tmp/cosmicdance-sweep scale -sats $$sats -days 2 -seed 42 2>&1 >/dev/null | awk '$$1 == "peak_rss_bytes" { print $$2 }'); \
		end=$$(date +%s.%N); \
		awk -v n=$$sats -v a=$$start -v b=$$end -v r=$$rss 'BEGIN { printf "scale-sweep: %6d sats  %6.2fs  %8.0f sats/sec  peak RSS %d bytes\n", n, b-a, n/(b-a), r }'; \
	done; \
	rm -f /tmp/cosmicdance-sweep

# Compare the current benchmarks against the pinned baseline; fails on a
# >10% regression in ns/op or allocs/op (min-of-N runs, GOMAXPROCS pinned
# to the baseline's value).
bench-diff:
	./scripts/benchdiff.sh

# Prove telemetry inertness: the instrumented hot paths may cost at most
# 2% more than a COSMICDANCE_OBS=off run.
obs-overhead:
	./scripts/obs_overhead.sh

# Refresh the pinned figure renderings after an intentional output change.
golden:
	$(GO) test ./cmd/figures -run Golden -update

fuzz:
	./scripts/fuzz.sh

# The full verification gate: vet + build + race-tested suite + fuzz seeds.
verify:
	./verify.sh

verify-short:
	./verify.sh -short
