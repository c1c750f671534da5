GO ?= go

.PHONY: build test fmt-check loc lint lint-json race fuzz fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fail when gofmt would change a file. Analyzer fixtures under testdata/ are
# left as written.
fmt-check:
	@out="$$(gofmt -l . | grep -v '/testdata/')"; \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Non-test Go lines: the delivery-stack basket ROADMAP's "Smaller deletions"
# tracks (conformancetest is under internal/transport), then everything
# outside benchmark/ and the analyzer fixtures. Deletion PRs quote both.
loc:
	@printf 'delivery stack (internal/{transport,netsim,group,core}): %s\n' \
		"$$(find internal/transport internal/netsim internal/group internal/core \
			-name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'repo outside benchmark/: %s\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
			! -path '*/testdata/*' | xargs cat | wc -l)"

# Run the protolint analyzer suite over the whole tree. The tool re-execs
# itself through `go vet -vettool`, so results are cached per package and
# incremental runs are fast. Exit status 2 means unsuppressed findings.
lint:
	$(GO) run ./cmd/protolint ./...

# Same, but findings (suppressed ones included) stream to stdout as NDJSON —
# this is what CI feeds the GitHub annotation step.
lint-json:
	$(GO) run ./cmd/protolint -json ./...

race:
	$(GO) test -race ./...

# Long-running scenario fuzzing: seeded random action programs checked by the
# cross-backend differential oracle (see docs/FUZZING.md). This target asks
# for it with -out: shrunk repros of any divergence go to the replayed corpus.
# Override e.g. FUZZ_DURATION=1h.
FUZZ_DURATION ?= 10m
FUZZ_JOBS ?= 4
# Fresh seeds every run — the generator is fully deterministic per seed, so
# restarting from a fixed seed would re-explore the same programs. A failure
# report names its seed, which IS the repro.
FUZZ_SEED ?= $(shell date +%s)
fuzz:
	$(GO) run ./cmd/scenfuzz -duration $(FUZZ_DURATION) -jobs $(FUZZ_JOBS) \
		-seed $(FUZZ_SEED) -out internal/scengen/testdata/corpus

# The 30-second native-fuzzer smoke CI runs on every PR.
fuzz-smoke:
	$(GO) test -fuzz=FuzzScenario -fuzztime=30s ./internal/scengen
