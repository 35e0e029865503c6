#!/usr/bin/env bash
# The deletion budget's line count: `.rs` lines over the workspace
# (crates/ shims/ src/ tests/), over the perf-ledger package
# (benchmark/), and their sum — the figures ROADMAP item 5 tracks.
# Counts tracked and untracked-but-not-ignored files, so build output
# under target/ never counts. Run from anywhere inside the repo:
#
#   ci/loc.sh
set -eu
cd "$(git rev-parse --show-toplevel)"
count() {
  git ls-files -co --exclude-standard -z -- "$@" \
    | grep -z '\.rs$' \
    | xargs -0 -r cat \
    | wc -l
}
workspace=$(count crates shims src tests)
ledger=$(count benchmark)
echo "workspace (crates/ shims/ src/ tests/): $workspace"
echo "benchmark/:                             $ledger"
echo "total:                                  $((workspace + ledger))"
