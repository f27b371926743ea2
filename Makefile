# Build / verify entry points. Engine performance is measured by the
# bench/ harness (`bash bench/run.sh`), not from here.
#
#   make build  — compile every package
#   make vet    — static analysis
#   make test   — full test suite (tier-1 gate: build + test green);
#                 in-process loopback tests cover the daemon, the worker
#                 fleet, and /metrics, so no target starts a background
#                 process
#   make race   — full test suite under the race detector (the parallel
#                 exec paths must stay race-clean)
#   make check  — build + vet + lint + test + chaos
#   make bench-all — every Go micro-benchmark in the repo (kernels,
#                 planner, serving path); the paper's tables come from
#                 `go run ./cmd/faqbench`
#   make test-workers — re-run the worker-count equivalence suites with
#                 the default pool pinned at 1, 2, and 8 workers
#                 (FAQ_WORKERS, read by internal/exec at init), so the
#                 one intra-node block split (the fused GHD-node walk)
#                 and the forest pool run at each width
#   make examples — build and run every examples/ program (all are
#                 clients of the public faqs façade; wired into CI)
#   make lint   — gofmt (fails if `gofmt -l .` lists any file), then
#                 faqlint, the repo's static-analysis suite
#                 (internal/lint): eight analyzers compiling the standing
#                 contracts — facade, nopanic, mapiter, ctxflow,
#                 hotpath, failpoint, metricreg, deadexport — into build
#                 failures; zero
#                 unsuppressed findings required (part of `make check`)
#   make fuzz   — every fuzz target for FUZZTIME each
#   make procs  — process hygiene: prints any faqd, faqw, faqbench or
#                 bench/run.sh binary (.bench_build/) still running, any
#                 *.test binary, any running `go build`, `go test` or
#                 `go run`, and the Go telemetry sidecar (`go "** telemetry
#                 **"`, which a first `go` command in a fresh config
#                 directory can start detached), and exits 1 if there is
#                 one; the last CI step. Run it as a command of its own:
#                 the bracketed pattern does not match itself, but does
#                 match a shell whose command line names one of those
#                 programs elsewhere
#   make chaos  — failpoint sweep under the race detector at 1/2/8
#                 workers: every registered fault-injection site fired
#                 in every mode must yield a typed error or a
#                 bit-identical answer, never a hang or panic escape
#                 (part of `make check`). Chaos tests follow the
#                 TestChaos* naming convention — enforced by the
#                 failpoint analyzer, so an arming test that drops the
#                 prefix (and would silently leave the sweep) is a lint
#                 failure, not a quiet coverage loss.

GO        ?= go
BENCHTIME ?= 0.5s
FUZZTIME  ?= 30s

# The packages holding the parallel≡sequential equivalence suites.
WORKER_PKGS = ./internal/relation/ ./internal/protocol/ ./internal/faq/ ./internal/exec/ ./internal/flow/ ./internal/plan/ ./internal/service/ ./internal/delta/ ./internal/delta/churn/ ./internal/cluster/ ./faqs/

.PHONY: build test vet lint race check chaos bench-all fuzz test-workers examples procs

# The packages holding chaos (failpoint-sweep) TestChaos* suites: the
# serving path, the incremental-maintenance engine, the kernels, the
# exec pool, the netsim ledger, the rpc transport, the scatter/gather
# coordinator, the public façade, and the daemon's
# HTTP boundary. This list must mirror
# the failpoint analyzer's ChaosPackages (internal/lint/failpoint.go):
# the analyzer flags arming tests in packages outside it, so the two
# cannot drift silently. The fault registry's own unit suite runs in
# tier-1/`make race` — its arming calls are exercises of the registry,
# not chaos sweeps (analyzer Exempt entry).
CHAOS_PKGS = ./internal/service/ ./internal/delta/ ./internal/relation/ ./internal/protocol/ ./internal/exec/ ./internal/rpc/ ./internal/cluster/ ./faqs/ ./cmd/faqd/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/faqlint ./...

race:
	$(GO) test -race ./...

check: build vet lint test chaos

chaos:
	FAQ_WORKERS=1 $(GO) test -race -count=1 -run '^TestChaos' $(CHAOS_PKGS)
	FAQ_WORKERS=2 $(GO) test -race -count=1 -run '^TestChaos' $(CHAOS_PKGS)
	FAQ_WORKERS=8 $(GO) test -race -count=1 -run '^TestChaos' $(CHAOS_PKGS)

examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d; \
	done

bench-all:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=$(BENCHTIME) ./...

test-workers:
	FAQ_WORKERS=1 $(GO) test -count=1 $(WORKER_PKGS)
	FAQ_WORKERS=2 $(GO) test -count=1 $(WORKER_PKGS)
	FAQ_WORKERS=8 $(GO) test -count=1 $(WORKER_PKGS)

fuzz:
	$(GO) test ./internal/relation/ -run=NONE -fuzz=FuzzBuilderDuplicateMerge -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/relation/ -run=NONE -fuzz=FuzzJoinMergeParallel -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/relation/ -run=NONE -fuzz=FuzzMergeAddRebase -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/faq/ -run=NONE -fuzz=FuzzEvalNodeCore -fuzztime=$(FUZZTIME)
	$(GO) test ./faqs/ -run=NONE -fuzz=FuzzQueryBuilder -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/delta/ -run=NONE -fuzz=FuzzDeltaApply -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/plan/ -run=NONE -fuzz=FuzzCanonicalize -fuzztime=$(FUZZTIME)
	$(GO) test ./faqs/ -run=NONE -fuzz=FuzzWireRequestDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ghd/ -run=NONE -fuzz=FuzzMinimize -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/rpc/ -run=NONE -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/shard/ -run=NONE -fuzz=FuzzShardDecode -fuzztime=$(FUZZTIME)

procs:
	@if pgrep -fa '[f]aqd|[f]aqw|[f]aqbench|\.[b]ench_build|\.tes[t]( |$$)|[g]o (build|test|run)( |$$)|\*\* [t]elemetry'; then exit 1; fi
