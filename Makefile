# rnascale build and verification targets.

GO ?= go

# Per-package coverage floors for the fault/recovery-critical
# packages (current actuals are ~85-92%; floors leave headroom).
# cloud's floor rose with the spot/serverless backends: the market
# walk, reclaim coupling and function billing must stay covered.
COVER_SPECS = internal/cloud:85 internal/pilot:80 internal/core:80

# Parser fuzz targets exercised by fuzz-smoke.
FUZZ_TARGETS = FuzzParseFasta FuzzParseFastq FuzzParseSFA
FUZZ_TIME ?= 10s

.PHONY: all build test vet lint lint-fixtures race cover fuzz-smoke journal-determinism overload-determinism check bench bench-gate bench-baseline clean

# Coverage profiles land here instead of littering the repo root.
BUILD_DIR = build

all: build

# build compiles everything, then asserts two dependency contracts:
# the rnavet analyzer stays stdlib-only with no network imports (the
# determinism gate must keep running on the offline single-CPU machine
# with just the toolchain), and the perf probe package stays
# stdlib-only (it is imported by every hot kernel, so a dependency
# added there is a dependency added everywhere).
build:
	$(GO) build ./...
	@nonstd=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./cmd/rnavet | grep -v '^rnascale' || true); \
	netdeps=$$($(GO) list -deps ./cmd/rnavet | grep -E '^net(/|$$)' || true); \
	if [ -n "$$nonstd$$netdeps" ]; then \
		echo "FAIL: cmd/rnavet must stay stdlib-only with no network imports:"; \
		echo "$$nonstd $$netdeps"; exit 1; \
	fi
	@perfdeps=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./internal/obs/perf | grep -v '^rnascale/internal/obs/perf$$' || true); \
	if [ -n "$$perfdeps" ]; then \
		echo "FAIL: internal/obs/perf must stay stdlib-only (it is linked into every kernel):"; \
		echo "$$perfdeps"; exit 1; \
	fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs rnavet, the project's determinism, concurrency and
# durability analyzer (see internal/analysis): wall-clock reads in
# simulation packages, global math/rand usage, order-dependent
# emission from map iteration, wall-clock types on simulation APIs,
# unjoined goroutines, mutexes held across blocking operations,
# dropped durability errors, and unbounded metric label values. rnavet
# prints a one-line summary (checks run, files scanned, findings) and
# exits non-zero on any finding — including stale //rnavet:allow
# directives. The go-list snapshot is cached under $(BUILD_DIR) so
# repeated lints skip the go-tool walk when nothing changed.
lint:
	$(GO) run ./cmd/rnavet -cache $(BUILD_DIR)/rnavet-cache ./...

# lint-fixtures exercises the analyzer itself: the golden-fixture
# corpus for every check, the JSON schema golden, the go-list cache
# round-trip, and the awkward-package-shape loader tests. Run it after
# touching internal/analysis; regenerate goldens with `go test -update`.
lint-fixtures:
	$(GO) test ./internal/analysis

race:
	$(GO) test -race ./...

# cover enforces the per-package coverage floors on the packages the
# fault-injection and recovery paths live in.
cover:
	@mkdir -p $(BUILD_DIR)
	@for spec in $(COVER_SPECS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; out=$(BUILD_DIR)/cover.$$(basename $$pkg).out; \
		$(GO) test -coverprofile=$$out ./$$pkg || exit 1; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage $$pct% (floor $$floor%)"; \
		awk -v p=$$pct -v f=$$floor 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || \
			{ echo "FAIL: $$pkg coverage $$pct% below floor $$floor%"; exit 1; }; \
	done

# fuzz-smoke runs each parser fuzz target briefly; failures minimize
# into internal/seq/testdata/fuzz as regression inputs.
fuzz-smoke:
	@for tgt in $(FUZZ_TARGETS); do \
		$(GO) test ./internal/seq -run '^$$' -fuzz "^$$tgt$$" -fuzztime=$(FUZZ_TIME) || exit 1; \
	done

# journal-determinism pins the checkpoint/resume contract: a run is
# killed at three injected virtual-time points (mid-PA, mid-PB,
# mid-PC), resumed from its write-ahead journal, and the resumed
# report, metrics and Chrome trace must be byte-identical to an
# uninterrupted run's — with zero journaled units re-executed. The
# driver-crash chaos soak races resume against worker faults, and the
# torn-tail test resumes through crash-shaped journal damage. The
# whole contract is pinned at group-commit batch sizes 1 (fsync per
# append), 8 and 64: batching changes when fsyncs happen, never what
# resumes read.
journal-determinism:
	@for b in 1 8 64; do \
		echo "journal-determinism: JOURNAL_BATCH=$$b"; \
		JOURNAL_BATCH=$$b $(GO) test -race -run 'TestKillAndResumeByteIdentical|TestResumeOfCompleteJournal|TestResumeAfterTornTail|TestChaosDriverCrashResumeSoak' ./internal/core || exit 1; \
	done

# overload-determinism pins the overload-protection contract: the
# chaos soak (deadlines, cancellation, retry budgets, breakers, and
# their interactions with reclaim/flake storms) must produce
# byte-identical artifacts for the same seed at every sweep worker
# count, and a cancelled or deadline-exceeded run must resume from its
# journal as a pure replay reproducing the same truncated report.
# Pinned across 2 worker counts × 2 group-commit batch sizes: neither
# scheduling nor fsync batching may leak into overload decisions.
overload-determinism:
	@for w in 1 4; do for b in 1 64; do \
		echo "overload-determinism: OVERLOAD_WORKERS=$$w JOURNAL_BATCH=$$b"; \
		OVERLOAD_WORKERS=$$w JOURNAL_BATCH=$$b $(GO) test -race -run 'TestChaosOverloadSoak|TestDeadlineCancelResumeByteIdentical|TestBreakerConvertsReclaimStorm' ./internal/core || exit 1; \
	done; done

# check is the gate a change must pass before review: static analysis
# (go vet plus the rnavet determinism analyzer), the full test suite
# under the race detector (which includes the sweep executor's
# determinism tests), the coverage floors, the journal resume
# contract, the overload contract, a fuzz smoke pass and the kernel
# benchmark regression gate.
check: vet lint race cover journal-determinism overload-determinism fuzz-smoke bench-gate

# bench regenerates the paper tables at quick scale and refreshes
# BENCH_results.json (per-stage TTC/cost snapshots, plus the pass's
# wall-clock seconds and worker count for throughput tracking).
bench:
	$(GO) run ./cmd/benchtab -experiment all

# bench-gate measures the hot kernels (fixed-seed microbenchmarks in
# internal/kernelbench) and fails if any regressed beyond tolerance
# against the committed BENCH_baseline.json. Tolerances are loose on
# wall time (machines are noisy) and tight on allocation counts
# (deterministic for a fixed toolchain); override per-column with e.g.
# BENCH_GATE_FLAGS='-tol-time 1.0'. Improvements never fail — lock
# them in with bench-baseline.
bench-gate:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/benchtab -kernels -json $(BUILD_DIR)/BENCH_results.json
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -current $(BUILD_DIR)/BENCH_results.json $(BENCH_GATE_FLAGS)

# bench-baseline re-measures the kernels and rewrites the committed
# baseline. Run on a quiet machine after a deliberate performance
# change, and commit the result.
bench-baseline:
	$(GO) run ./cmd/benchtab -kernels -json BENCH_baseline.json
	@echo "BENCH_baseline.json rewritten; review and commit it."

clean:
	rm -rf $(BUILD_DIR)
	rm -f BENCH_results.json cover.*.out
	$(GO) clean ./...
