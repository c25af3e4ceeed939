# figfusion build/test targets. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build test race bench benchall vet fmt lint figlint figures examples clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The retrieval microbenches, then one run of the repo's gated benchmark
# (BENCHMARK.json, bench/README.md) per workload: the real serving stack
# over loopback, 11 end-to-end metrics each.
bench:
	$(GO) test -bench='Search|CandidateSet' -benchmem ./internal/retrieval/...
	for w in uniq-4k uniq-8k hot-4k fleet-rw-4k; do bash bench/run.sh --workload $$w --seed 1 || exit 1; done

# Every microbenchmark in the repo (slow; includes the ablation sweeps).
benchall:
	$(GO) test -bench=. -benchmem ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: numeric, determinism and concurrency
# invariants enforced by cmd/figlint (see DESIGN.md).
figlint:
	$(GO) run ./cmd/figlint ./...

lint: vet figlint

fmt:
	gofmt -w .

# Regenerate every paper figure at laptop scale (see EXPERIMENTS.md).
figures:
	$(GO) run ./cmd/figbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/photosearch
	$(GO) run ./examples/trendingrec
	$(GO) run ./examples/fusioncompare
	$(GO) run ./examples/topiclabel
	$(GO) run ./examples/musicdiscover

clean:
	$(GO) clean ./...
