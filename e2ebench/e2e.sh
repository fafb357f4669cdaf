#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release, from this checkout's sources) and
# runs one workload; the last stdout line is the JSON result.
#
#   bash e2ebench/e2e.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr. The build tree is .bench_build/e2ebench at
# the repository root; with --trace 1 the last traced pass is written there
# as <workload>.trace.json (Chrome trace format, loads in Perfetto).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f CMakeLists.txt ] || [ ! -f src/CMakeLists.txt ]; then
  echo "e2e.sh: no pasjoin project (CMakeLists.txt, src/) in $(pwd)" >&2
  exit 2
fi

BUILD=.bench_build/e2ebench
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S e2ebench -B "$BUILD" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$BUILD" -j "$(nproc)" --target e2e_bench >&2

exec "$BUILD/e2e_bench" --trace-dir "$BUILD" "$@"
