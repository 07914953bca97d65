#!/usr/bin/env bash
# Performance bench runner: builds the Release bench binaries, runs every
# bench that emits a BENCH_*.json (kernel micro, training path, trace
# scale), and collects the JSONs in one place. Run from
# anywhere inside the repo:
#
#   scripts/bench.sh                 # run all perf benches -> bench_results/
#   scripts/bench.sh train           # just one bench (micro_nn|train|scale)
#   CPT_BENCH_OUT=/tmp/r scripts/bench.sh   # collect somewhere else
#
# Each bench writes its BENCH_<name>.json into the build directory; this
# script copies them into $CPT_BENCH_OUT (default: <repo>/bench_results).
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
BUILD="$ROOT/build-bench"
OUT="${CPT_BENCH_OUT:-$ROOT/bench_results}"

benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
    benches=(micro_nn train scale)
fi
for b in "${benches[@]}"; do
    case "$b" in
        micro_nn | train | scale) ;;
        *)
            echo "unknown bench '$b' (expected: micro_nn train scale)" >&2
            exit 2
            ;;
    esac
done

mkdir -p "$BUILD"
cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >"$BUILD/configure.log" 2>&1 ||
    { cat "$BUILD/configure.log"; exit 1; }
targets=()
for b in "${benches[@]}"; do targets+=("bench_$b"); done
cmake --build "$BUILD" -j "$JOBS" --target "${targets[@]}"

mkdir -p "$OUT"
for b in "${benches[@]}"; do
    echo "== bench: $b =="
    # Benches write BENCH_*.json into their working directory.
    (cd "$BUILD/bench" && "./bench_$b")
    cp "$BUILD/bench/BENCH_$b.json" "$OUT/"
done

echo "== collected in $OUT =="
ls -l "$OUT"/BENCH_*.json
