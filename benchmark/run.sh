#!/usr/bin/env bash
# Builds the benchmark (offline; nothing outside this directory's package is
# written except the cargo target directory) and runs it with the given
# arguments. See README.md, or pass --help.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# The build's progress goes to stderr; stdout carries only the results.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
# Keep freed memory in the process instead of returning it to the OS and
# faulting it in again on the next repeat: every repeat builds and drops its
# inputs, and on a small VM the page faults cost up to a third of a unit's
# wall and vary by 10% from one process to the next. With 1 GiB of top
# padding glibc serves even 32 MiB images from the heap and never trims it.
# See README.md, "Host and allocator".
export MALLOC_TOP_PAD_="${MALLOC_TOP_PAD_:-1073741824}"
exec "$target/release/sst-benchmark" "$@"
