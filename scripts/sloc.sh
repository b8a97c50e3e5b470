#!/usr/bin/env bash
# Counts the non-test code of the workspace: non-blank lines that are not
# `//` comments, in every `.rs` file under `crates/*/src`.
#
# A file named `tests.rs` is a unit-test module and is skipped. Every other
# file is counted up to its first column-0 `#[cfg(test)]` whose next
# non-blank line starts with `mod` (the file's test module); a `#[cfg(test)]`
# on anything else (a test-only field, struct or impl) does not end it.
#
#   scripts/sloc.sh            total only
#   scripts/sloc.sh --files    one "<lines> <file>" row per file, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

per_file=$(find crates/*/src -name '*.rs' ! -name tests.rs | LC_ALL=C sort | while read -r f; do
  awk -v file="$f" '
    /^[[:space:]]*$/ { next }
    held { held = 0; if (/^mod[[:space:]]/) exit; n++ }
    /^#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { printf "%d %s\n", n + held, file }
  ' "$f"
done)

if [[ "${1:-}" == "--files" ]]; then
  printf '%s\n' "$per_file"
fi
printf '%s\n' "$per_file" | awk '{ s += $1 } END { print s }'
