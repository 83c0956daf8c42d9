# Top-level developer targets. `make check` is the pre-merge gate
# (formatting, vet, lint, build, race-enabled tests); the rest are the
# usual shortcuts.

GO ?= go

.PHONY: all build test race fmt vet lint check

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

# scaffe-lint enforces the repo-specific invariants (determinism, MPI
# request discipline, trace-span balance); see internal/lint and
# DESIGN.md §10.
lint:
	$(GO) run ./cmd/scaffe-lint ./...

check:
	sh scripts/check.sh
