# Top-level developer targets. `make check` is the pre-merge gate
# (formatting, vet, source rules, build, race-enabled tests); the rest
# are the usual shortcuts.

GO ?= go

.PHONY: all build test race fmt vet check

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

check:
	sh scripts/check.sh
