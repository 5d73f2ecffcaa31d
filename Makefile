GO ?= go

.PHONY: all build test check race bench bench-json cover serve chaos pool-smoke perfbench-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check fails if vet reports problems, any file is not gofmt-clean, or
# a metric family violates the naming conventions (telemetry.Lint).
check:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) test -run 'Lint' ./internal/telemetry/ ./internal/campaign/ ./internal/campaign/pool/

# race runs the whole test suite under the race detector; the campaign
# service makes every package a concurrency consumer.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# bench-json runs the full benchmark suite and writes a dated,
# machine-readable snapshot (BENCH_<date>.json) for committing alongside
# perf-sensitive changes; cmd/benchjson aggregates repeated -count runs.
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y-%m-%d).json

# serve builds the campaign HTTP server and smoke-tests it end to end:
# POST the Table 2 campaign to a loopback listener, cold then warm cache.
serve:
	$(GO) build ./cmd/ensembled
	$(GO) run ./cmd/ensembled -smoke

# chaos is the crash-recovery smoke: start a server, SIGKILL it
# mid-campaign, restart it on the same state dir, and require the resumed
# campaign to complete with results identical to an uninterrupted run.
chaos:
	$(GO) run ./cmd/ensembled -smoke-chaos

# pool-smoke is the distributed-fabric smoke: three ensembled processes
# form a localhost pool, a campaign sharded across them must fingerprint
# identically to a single-node run (even with one peer SIGKILLed
# mid-campaign), and the pool metrics must show cross-node cache hits.
pool-smoke:
	$(GO) run ./cmd/ensembled -smoke-pool

# perfbench-smoke vets and tests the benchmark module, which is its own
# Go module (so `go test ./...` here never compiles it against API
# changes), then runs one short traced campaign loop of warm-resubmit
# (cache hits only) and of cold-sweep (every job executes, so the DES
# span bridge runs inside a real server). The runs enforce the
# benchmark's correctness and shape gates, not timings.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload warm-resubmit --seed 1 --seconds 3 --trace 1
	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 3 --trace 1

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
