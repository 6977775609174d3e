#!/usr/bin/env bash
# Builds msbench from this checkout and runs it with the given arguments.
# Everything the build and the run write — the Go build cache included —
# stays under benchmark/out, so the benchmark touches nothing outside its
# checkout. In a directory without the repository's sources the build fails
# and so does this script, without printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$here/out/bin"
export GOCACHE="$here/out/gocache" GOMODCACHE="$here/out/gomodcache" GOFLAGS=-modcacherw
export MSBENCH_HOME="$here"
go build -C "$here" -o out/bin/msbench .
exec "$here/out/bin/msbench" "$@"
