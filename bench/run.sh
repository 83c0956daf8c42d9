#!/usr/bin/env bash
# The benchmark's build file: builds bench/ (a package of the scaffe module)
# from source and runs it from the repository root.
# Everything the build leaves behind (the binary, Go's build cache, its
# temporary files) goes under .bench_build/ inside the checkout. In a
# directory without the repository around it the build fails and nothing
# is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/scaffe-bench" .)
cd "$root"
exec "$out/scaffe-bench" "$@"
