#!/usr/bin/env bash
# Flat gprof profile of one perfbench workload.
#
# Configures perfbench/ out of tree with -pg (no file under perfbench/ is
# changed), builds rapbench, runs the workload at seed 1 and prints the top
# 25 lines of gprof's flat profile. gprof samples the main thread only, so
# work that RegionThreads hands to pool workers is under-counted; compare
# profiles of the same workload, not across workloads.
#
# Usage: scripts/profile_rap.sh <workload> [seconds]
#   workload: table1 | scale_module | deep_function | rapd_edit
#   seconds defaults to 8. The build goes to
#   ${PROFILE_BUILD_DIR:-<repo>/build-profile} (configured once, rebuilt
#   incrementally); gmon.out and the state dir land there too.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <workload> [seconds]" >&2
  exit 2
fi
WORKLOAD="$1"
SECONDS_ARG="${2:-8}"

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${PROFILE_BUILD_DIR:-$REPO_ROOT/build-profile}"

command -v gprof >/dev/null || { echo "profile_rap: gprof not found" >&2; exit 1; }

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  gen=()
  command -v ninja >/dev/null && gen=(-G Ninja)
  cmake -S "$REPO_ROOT/perfbench" -B "$BUILD_DIR" "${gen[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
fi
cmake --build "$BUILD_DIR" --target rapbench -j "$(nproc)" >/dev/null

# gmon.out is written to the working directory when rapbench exits.
rm -f "$BUILD_DIR/gmon.out"
(cd "$BUILD_DIR" && ./rapbench --workload "$WORKLOAD" --seed 1 \
  --seconds "$SECONDS_ARG" --trace 0 --state-dir "$BUILD_DIR/state" >/dev/null)
[ -f "$BUILD_DIR/gmon.out" ] || { echo "profile_rap: no gmon.out written" >&2; exit 1; }

gprof -b -p "$BUILD_DIR/rapbench" "$BUILD_DIR/gmon.out" > "$BUILD_DIR/flat.txt"
head -n 25 "$BUILD_DIR/flat.txt"
awk '$1 ~ /^[0-9.]+$/ && NF >= 3 { total = $2 } END { print "total self seconds:", total }' \
  "$BUILD_DIR/flat.txt"
