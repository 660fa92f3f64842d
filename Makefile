# Build/test entry points. `make ci` is the full PR gate: gofmt, vet, the p3cvet
# contract analyzers, build, the whole test suite (with test-order
# shuffling so order dependence can't creep in), the benchmark harness's
# own tests, the race detector over the engine's concurrent merge path,
# the chaos/fault suite under -race, and one pass of the engine
# micro-benchmarks (compile + smoke, not timing).

GO ?= go

.PHONY: ci fmt-check vet lint build cross test bench-module race bench bench-diff chaos chaos-proc trace ops ops-proc trace-diff trace-demo ops-demo trace-analyze proc-demo loc

ci: fmt-check vet lint build cross test bench-module race chaos chaos-proc trace ops ops-proc trace-diff bench bench-diff

# Fails when any tracked Go file is not gofmt-formatted, naming the files.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The seven project-specific contract analyzers (wall-clock and randomness
# determinism, map order, hot-path boxing, pool lifecycles, the job-impl
# registry bijection, and tracing only through obs.Open handles closed by
# a deferred End and the nil-safe obs.Emit). Exits nonzero on any
# finding; see cmd/p3cvet and DESIGN.md §3e/§3j.
lint:
	$(GO) run ./cmd/p3cvet ./...

build:
	$(GO) build ./...

# Builds for a non-Unix and a big-endian target, where dataset.ReadBinary
# decodes files instead of mapping them, so the fallback keeps compiling,
# and for a 32-bit target, where an int is too narrow for 64-bit header
# arithmetic.
cross:
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOARCH=s390x $(GO) build ./...
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# The benchmark harness (bench/) is a nested module with its own go.mod,
# so the root `go test ./...` skips it. Its tests fold traces of the real
# pipeline into per-job-family ledger entries and must see every change to
# the pipeline's job graph.
bench-module:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# The deterministic chaos harness: every Fault/Chaos test across the repo —
# engine-level fault plans, the pipeline oracle in internal/core, and the
# public-API JSON oracle — under the race detector, since fault injection
# exercises the retry/cancellation paths concurrently.
chaos:
	$(GO) test -race -run 'Chaos|Fault' ./...

# The backend seam's process-level harness under the race detector: the
# cross-backend conformance matrix (bit-identical output across inprocess
# and multiprocess at every parallelism and spill threshold; the
# multiprocess sweep auto-trims under -race via a build tag — worker
# processes are race-instrumented binaries and slow to spawn), the
# pipeline's own JSON oracle across backends, the
# SIGKILL-mid-task chaos tests with exact retry/waste accounting, the
# worker protocol, wire-schema handshake and driver-death hygiene tests,
# the out-of-core spill/merge test, and one fuzz-seed pass over the spill
# codec and the k-way merge.
chaos-proc:
	$(GO) test -race -run 'Backend|ProcKill|Spill|Worker|Multiprocess|Wire' ./internal/mr/ ./cmd/p3ctrace/ .
	$(GO) test -run 'FuzzSpillRoundTrip|FuzzKWayMergeOrder' ./internal/mr/

# Observability suite under the race detector: tracer/metrics unit tests,
# span-structure tests (including the pipeline's phase order), and
# trace-vs-untraced identity oracles.
trace:
	$(GO) test -race -run 'Trace|Obs|Metrics|Report|JSONL' ./...

# Ops-plane and trace-analysis suite under the race detector: progress
# aggregation, Prometheus exposition (golden + validator), flight-recorder
# retention, the live ops-server-during-chaos test, and the p3ctrace oracle.
ops:
	$(GO) test -race -run 'Ops|Flight|Progress|Prometheus|Analyze' ./...

# Worker telemetry plane under the race detector: the multiprocess
# telemetry/clock-alignment tests, the live ops-server-during-proc-kill-chaos
# test (pollers on /metrics, /runs, /workers while worker fleets die and
# respawn), the per-worker golden families, and the p3ctrace merge/timeline
# regressions.
ops-proc:
	$(GO) test -race -run 'MultiprocTelemetry|OpsProc|Workers|WorkerTelemetry|ParseTrace|ClassifyAndTimeline' \
		./internal/mr/ ./internal/obs/ ./cmd/p3ctrace/

# Run-archive + trace-diff regression gate, end to end through the real
# CLIs: archive a clean run and a straggler-seeded run of the same data
# into two archive roots, then assert `p3ctrace -diff` attributes the
# regression and exits nonzero (the `!` inverts it), and that a self-diff
# passes. Deterministic: straggler charge is simulated (seeded, sim-only),
# so the flagged delta is exact across machines.
trace-diff:
	rm -rf /tmp/p3c-archive-a /tmp/p3c-archive-b
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-diff-demo.bin -n 3000 -dim 10 -clusters 3
	$(GO) run ./cmd/p3crun -in /tmp/p3c-diff-demo.bin -algo mr-light -simulate \
		-archive /tmp/p3c-archive-a
	$(GO) run ./cmd/p3crun -in /tmp/p3c-diff-demo.bin -algo mr-light -simulate \
		-chaos-straggler 0.5 -chaos-straggler-s 2 -archive /tmp/p3c-archive-b
	! $(GO) run ./cmd/p3ctrace -diff -straggler-threshold 1 \
		/tmp/p3c-archive-a /tmp/p3c-archive-b
	$(GO) run ./cmd/p3ctrace -diff -straggler-threshold 0 -sim-threshold 0 \
		/tmp/p3c-archive-a /tmp/p3c-archive-a

# Non-test Go lines per package directory and in total, leaving out the
# benchmark harness (bench/) and lint corpora (testdata/): the size figure
# a simplicity change reports before → after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' ! -path './bench/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# One pass of each micro-benchmark, a compile, smoke and allocation pass
# rather than a timing (`make bench-diff` times the engine's): the engine
# benchmarks, then the a-priori join and maximality filter, the per-point
# and block moments kernels, the per-component moments fold, Light's
# word-by-word member lists and unique labels, and the data set's
# non-finite scan, binary reader and binary writer. Writes no file.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./internal/mr/
	$(GO) test -run xxx -bench 'GenerateCandidates|FilterMaximal' -benchtime 1x -benchmem ./internal/signature/
	$(GO) test -run xxx -bench 'MomentsAdd|MomentsFold' -benchtime 1x -benchmem ./internal/linalg/
	$(GO) test -run xxx -bench 'CollectMembers|UniqueLabels' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'Validate|ReadBinary|WriteBinary' -benchtime 1x -benchmem ./internal/dataset/

# Compare the engine micro-benchmarks of the working tree against its
# parent commit (HEAD^), measured in one session so machine drift between
# sessions cannot fail the gate: the parent's internal/mr test binary is
# built from `git archive` in a temporary directory, the two sides run
# interleaved, five rounds each, and benchjson -diff compares their medians
# against the (deliberately loose, -benchtime 1x is noisy) thresholds.
BENCH_DIFF_FLAGS = -test.run xxx -test.bench . -test.benchtime 1x -test.benchmem -test.timeout 10m

bench-diff:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive HEAD^ | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/old.test" ./internal/mr/); \
	$(GO) test -c -o "$$tmp/new.test" ./internal/mr/; \
	for i in 1 2 3 4 5; do \
		(cd "$$tmp/base/internal/mr" && "$$tmp/old.test" $(BENCH_DIFF_FLAGS)) >> "$$tmp/old.txt"; \
		(cd internal/mr && "$$tmp/new.test" $(BENCH_DIFF_FLAGS)) >> "$$tmp/new.txt"; \
	done; \
	$(GO) run ./cmd/benchjson -o "$$tmp/old.json" < "$$tmp/old.txt" > /dev/null; \
	$(GO) run ./cmd/benchjson -o "$$tmp/new.json" < "$$tmp/new.txt" > /dev/null; \
	$(GO) run ./cmd/benchjson -diff -threshold 0.75 -alloc-threshold 0.25 "$$tmp/old.json" "$$tmp/new.json"

# End-to-end trace demo: generate a small data set, cluster it with
# tracing, the per-job report, and the cost model enabled, then show the
# first few trace events.
trace-demo:
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-trace-demo.bin -n 2000 -dim 10 -clusters 3
	$(GO) run ./cmd/p3crun -in /tmp/p3c-trace-demo.bin -algo mr-light -simulate \
		-trace /tmp/p3c-trace-demo.jsonl -report -metrics
	head -n 5 /tmp/p3c-trace-demo.jsonl

# Live ops-plane demo: cluster with the ops server up and lingering, then
# curl the endpoints while the server is still alive.
ops-demo:
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-ops-demo.bin -n 20000 -dim 20 -clusters 4
	$(GO) run ./cmd/p3crun -in /tmp/p3c-ops-demo.bin -algo mr-light -simulate \
		-ops 127.0.0.1:19095 -ops-linger 5s & \
	sleep 2; \
	curl -sf http://127.0.0.1:19095/healthz; \
	curl -sf http://127.0.0.1:19095/runs; \
	curl -sf http://127.0.0.1:19095/metrics | head -n 20; \
	wait

# Multi-process backend demo: run the full P3C+-MR (MVB) pipeline on real
# worker OS processes with the smallest spill budget and seeded worker
# SIGKILLs, then show the per-worker attribution from the trace.
proc-demo:
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-proc-demo.bin -n 50000 -dim 10 -clusters 4
	$(GO) run ./cmd/p3crun -in /tmp/p3c-proc-demo.bin -normalize -algo mr-mvb \
		-backend multiprocess -spill-dir /tmp -spill-mb 1 -chaos 0.3 \
		-trace /tmp/p3c-proc-demo.jsonl
	$(GO) run ./cmd/p3ctrace -top 5 /tmp/p3c-proc-demo.jsonl

# Offline trace analysis demo: trace a run, then reconstruct the critical
# path, skew, and straggler/retry attribution from the JSONL.
trace-analyze:
	$(GO) run ./cmd/p3cgen -out /tmp/p3c-analyze-demo.bin -n 5000 -dim 15 -clusters 3
	$(GO) run ./cmd/p3crun -in /tmp/p3c-analyze-demo.bin -algo mr-light -simulate \
		-trace /tmp/p3c-analyze-demo.jsonl
	$(GO) run ./cmd/p3ctrace -top 5 /tmp/p3c-analyze-demo.jsonl
