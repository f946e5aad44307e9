#!/usr/bin/env bash
# Allocation-decision gate: compares the seed-1 determinism ledger of each
# perfbench workload with the committed scripts/perfbench_ledger_seed1.txt.
#
# A ledger line holds run-time cycles, code size, the allocators' work
# counters (graph builds, spill rounds, spilled registers, regions) and a
# hash of every job's allocated output, so it changes exactly when some
# allocation decision changes. perfbench/run.py writes one per workload and
# seed under <state-dir>/det-<workload>-<seed>-<build>.txt; run the four
# workloads at --seed 1 first (any --seconds; the ledger is the first pass).
#
# Usage: scripts/perfbench_ledger.sh [--update] [state-dir]
#   state-dir defaults to ${CARGO_TARGET_DIR:-.bench_build}/state.
#   --update rewrites the committed file from the state dir instead; a
#   change that means to alter allocation decisions does this and says why
#   in CHANGES.md.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
LEDGER="$REPO_ROOT/scripts/perfbench_ledger_seed1.txt"
WORKLOADS="table1 scale_module deep_function rapd_edit"

UPDATE=0
if [ "${1:-}" = "--update" ]; then
  UPDATE=1
  shift
fi
TARGET="${CARGO_TARGET_DIR:-.bench_build}"
case "$TARGET" in /*) ;; *) TARGET="$REPO_ROOT/$TARGET" ;; esac
STATE="${1:-$TARGET/state}"

# The newest seed-1 ledger of workload $1 (one per build of rapbench).
current() {
  local f
  f="$(ls -t "$STATE"/det-"$1"-1-*.txt 2>/dev/null | head -n 1)"
  if [ -z "$f" ]; then
    echo "perfbench_ledger: no seed-1 ledger for $1 in $STATE" >&2
    return 1
  fi
  printf '%s %s\n' "$1" "$(cat "$f")"
}

if [ "$UPDATE" = 1 ]; then
  for w in $WORKLOADS; do current "$w"; done > "$LEDGER.tmp"
  mv "$LEDGER.tmp" "$LEDGER"
  echo "perfbench_ledger: wrote $LEDGER"
  exit 0
fi

status=0
for w in $WORKLOADS; do
  got="$(current "$w")" || { status=1; continue; }
  want="$(grep "^$w " "$LEDGER" || true)"
  if [ "$got" = "$want" ]; then
    echo "perfbench_ledger: $w matches"
  else
    echo "perfbench_ledger: $w differs from the committed ledger" >&2
    echo "  committed: $want" >&2
    echo "  this run:  $got" >&2
    status=1
  fi
done
exit $status
