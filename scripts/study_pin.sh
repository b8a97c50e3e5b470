#!/usr/bin/env bash
# The study pin: every CSV of `SST_SCALE=full sst-run all` against the
# committed copies in crates/harness/tests/study_pin/.
#
#   scripts/study_pin.sh               run the study into a temp dir and
#                                      `diff -r` its CSVs with the pinned ones
#   scripts/study_pin.sh --regenerate  rewrite the pinned CSVs (a modelling
#                                      change, in the same commit)
#
# Builds `sst-run` in release mode first; the run takes about 45 s at
# `--jobs 2` on two cores. Only CSVs are pinned: the JSON files and the
# manifest carry host timings. Exits non-zero on any difference.
set -euo pipefail
cd "$(dirname "$0")/.."

pin=crates/harness/tests/study_pin
regenerate=0
case "${1:-}" in
  "") ;;
  --regenerate) regenerate=1 ;;
  *) echo "usage: $0 [--regenerate]" >&2; exit 2 ;;
esac

cargo build --release --offline -q -p sst-harness --bin sst-run
bin="${CARGO_TARGET_DIR:-target}/release/sst-run"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
env -u SST_SEED -u SST_MAX_CYCLES SST_SCALE=full SST_RESULTS="$out" \
  "$bin" all --jobs 2 --no-cache >"$out/log" 2>&1 || { cat "$out/log" >&2; exit 1; }
mkdir "$out/csv"
cp "$out"/results/*.csv "$out/csv/"

if (( regenerate )); then
  mkdir -p "$pin"
  rm -f "$pin"/*.csv
  cp "$out"/csv/*.csv "$pin/"
  echo "study pin: wrote $(ls "$pin" | wc -l) CSVs to $pin"
else
  diff -r "$pin" "$out/csv"
  echo "study pin: $(ls "$pin" | wc -l) CSVs identical"
fi
