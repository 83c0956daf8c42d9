# Top-level developer targets. `make check` is the pre-merge gate
# (formatting, vet, lint, build, race-enabled tests); the rest are the
# usual shortcuts.

GO ?= go

.PHONY: all build test race fmt vet lint lint-escape check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 45m ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# scaffe-lint enforces the repo-specific invariants (determinism,
# hot-path allocation, MPI request discipline, trace-span balance);
# see internal/lint and DESIGN.md §10.
lint:
	$(GO) run ./cmd/scaffe-lint ./...

# The compiler-verified escape gate: heap escapes inside propagated
# //scaffe:hotpath functions, diffed against lint.baseline (DESIGN.md
# §15). Regenerate the baseline with
# `go run ./cmd/scaffe-lint -escape -write-baseline`.
lint-escape:
	$(GO) run ./cmd/scaffe-lint -escape ./...

check:
	sh scripts/check.sh
