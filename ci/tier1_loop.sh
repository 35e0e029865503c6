#!/usr/bin/env bash
# Tier-1 flake loop: the whole workspace's tests, N rounds, at harness
# thread counts 1, 2 and 16 under ENFRAME_WORKERS=1 and =8. Stops at the
# first failing run and prints which test binary failed and why.
#
#   ci/tier1_loop.sh [ROUNDS]      (default 5; run 20 before a change
#                                   that touches pool, failpoint or the
#                                   serve layer's memory tier)
set -u
rounds="${1:-5}"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
cargo test --workspace -q --locked --no-run || exit 1
for round in $(seq 1 "$rounds"); do
  for threads in 1 2 16; do
    for workers in 1 8; do
      if ! ENFRAME_WORKERS="$workers" \
        cargo test --workspace -q --locked -- --test-threads "$threads" >"$log" 2>&1; then
        echo "FAILED: round $round, --test-threads $threads, ENFRAME_WORKERS=$workers"
        # Cargo names the failing binary in its rerun hint; the failed
        # tests and their panics come from the harness summary.
        grep -E '^error: test failed, to rerun pass|^---- .* ----$|panicked at|^test .* FAILED$|^test result: FAILED' "$log"
        exit 1
      fi
    done
  done
  echo "round $round/$rounds green (threads 1,2,16 x workers 1,8)"
done
