#!/usr/bin/env bash
# Regenerates the committed end-to-end serving perf baseline.
#
# Builds the `loadgen` binary, runs the fixed serving benchmark matrix
# (close / keep-alive / pipelined connections per endpoint) against an
# in-process event-loop server, validates the emitted JSON against the
# BENCH_serve schema and only then moves it into place — a failed run
# can never clobber the committed baseline with a partial file.
#
# A full (non-quick) run also asserts the headline claim the baseline
# exists to defend: keep-alive serving must sustain at least 10x the
# committed close-mode reference on /v1/plan. That reference (~4.6k/s,
# REFERENCE_CLOSE_RPS in crates/serve/src/loadgen.rs) is a historical
# number from the original thread-per-connection server, which has since
# been deleted; it can no longer be reproduced in-tree.
#
# Usage: scripts/bench_serve.sh [--quick] [OUTPUT.json]
#   --quick   reduced request counts (CI smoke mode; do not commit)
#   OUTPUT    destination file (default: BENCH_serve.json)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
OUT="BENCH_serve.json"
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK="--quick" ;;
        -h|--help)
            echo "usage: scripts/bench_serve.sh [--quick] [OUTPUT.json]"
            exit 0
            ;;
        *) OUT="$arg" ;;
    esac
done

cargo build --release -p arrayflex-serve --bin loadgen
BIN=target/release/loadgen

TMP="$(mktemp)"
LOG="$(mktemp)"
trap 'rm -f "$TMP" "$LOG"' EXIT
"$BIN" --bench "$TMP" $QUICK | tee "$LOG"

if [[ -z "$QUICK" ]]; then
    SPEEDUP="$(sed -n 's/^keep-alive speedup over the committed .* close-mode reference: \(.*\)x$/\1/p' "$LOG")"
    if [[ -z "$SPEEDUP" ]] || ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 10) }'; then
        echo "keep-alive speedup ${SPEEDUP:-unknown}x over the reference is below the required 10x" >&2
        exit 1
    fi
fi

mv "$TMP" "$OUT"
echo "wrote $OUT"
