#!/usr/bin/env bash
# Correctness gate: warnings-as-errors build, static analysis, and a
# sanitizer ctest matrix. Run from anywhere inside the repo:
#
#   scripts/check.sh             # full gate, all stages in order (see below)
#   scripts/check.sh werror      # just the -Werror build + full test suite
#   scripts/check.sh tidy        # just clang-tidy over the compile database
#   scripts/check.sh annotate    # clang -Wthread-safety build (CPT_THREAD_SAFETY=ON)
#   scripts/check.sh sa          # cpt_sa project-invariant linter + static-labeled tests
#   scripts/check.sh ubsan       # UBSan build (recovery disabled) + full suite
#   scripts/check.sh asan        # ASan build + full suite
#   scripts/check.sh tsan        # TSan build + concurrency/serve-labeled tests + sharded training
#   scripts/check.sh simd        # Release build; parity, determinism, row invariance per SIMD tier
#   scripts/check.sh serve       # serve-labeled tests + daemon smoke (loadtest, clean drain)
#   scripts/check.sh router      # 2 backends + router; kill one mid-load, assert clean failover
#   scripts/check.sh train       # train-labeled tests, then rerun determinism with CPT_THREADS=2 and 3
#   scripts/check.sh scale       # scale-labeled tests + 50k-UE streaming smoke under an RSS bound
#
# Any subset may be requested by name (`scripts/check.sh sa tsan`). The
# werror, annotate and sanitizer stages each configure their own build
# directory (build-check-<stage>); sa, simd, serve, router, train and scale
# share one plain Release tree (build-check-release). Repeat runs are
# incremental. All requested stages run even after a failure; the script
# ends with a per-stage PASS/FAIL summary table and exits nonzero naming the
# first failed stage. The two clang-only stages (tidy, annotate) pass
# vacuously — with a notice — when no clang is installed, so the gate stays
# runnable on GCC-only hosts.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
RELEASE_DIR="$ROOT/build-check-release"

configure_and_build() { # <dir> <extra cmake flags...>
    local dir="$1"
    shift
    mkdir -p "$dir"
    cmake -S "$ROOT" -B "$dir" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@" >"$dir/configure.log" 2>&1 ||
        { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS"
}

run_ctest() { # <dir> [extra ctest args...]
    local dir="$1"
    shift
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" "$@"
}

find_clangxx() {
    local c
    for c in clang++ clang++-20 clang++-19 clang++-18 clang++-17 clang++-16 \
        clang++-15 clang++-14; do
        if command -v "$c" >/dev/null 2>&1; then
            echo "$c"
            return 0
        fi
    done
    return 1
}

stage_werror() {
    echo "== stage: werror (all warnings are errors, full test suite) =="
    configure_and_build "$ROOT/build-check-werror" -DCPT_WERROR=ON -DCPT_DEBUG_CHECKS=ON
    run_ctest "$ROOT/build-check-werror"
}

stage_tidy() {
    echo "== stage: clang-tidy =="
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed; skipping (stage passes vacuously)"
        return 0
    fi
    local db="$ROOT/build-check-werror"
    if [ ! -f "$db/compile_commands.json" ]; then
        configure_and_build "$db" -DCPT_WERROR=ON -DCPT_DEBUG_CHECKS=ON
    fi
    # First-party translation units only (src covers serve; tools covers the
    # cpt_sa linter itself); the config file scopes the checks.
    (cd "$ROOT" && find src examples bench tools -name '*.cpp' -print0 |
        xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$db" --quiet)
}

stage_annotate() {
    echo "== stage: annotate (clang thread-safety analysis as errors) =="
    local clangxx
    if ! clangxx="$(find_clangxx)"; then
        echo "no clang++ on PATH; -Wthread-safety unavailable (stage passes vacuously)"
        return 0
    fi
    echo "using $clangxx"
    # CPT_THREAD_SAFETY=ON turns every CPT_GUARDED_BY/CPT_REQUIRES violation
    # into a compile error, so "the build succeeds" is the whole check.
    configure_and_build "$ROOT/build-check-annotate" \
        -DCMAKE_CXX_COMPILER="$clangxx" -DCPT_THREAD_SAFETY=ON -DCPT_WERROR=ON
    # The negative-compile fixtures skip without clang; rerun them here where
    # one is guaranteed, proving the gate actually rejects unguarded access.
    run_ctest "$ROOT/build-check-annotate" -L static
}

stage_sa() {
    echo "== stage: sa (cpt_sa project-invariant linter + static-labeled tests) =="
    local dir="$RELEASE_DIR"
    configure_and_build "$dir"
    run_ctest "$dir" -L static
    # The real tree must lint clean: sync-types, avx2-isolation,
    # nn-single-thread, avx2-flags, determinism, raw-stderr
    # (tools/cpt_sa/sa_lint.hpp documents each).
    (cd "$ROOT" && "$dir/tools/cpt_sa" src CMakeLists.txt)
}

stage_ubsan() {
    echo "== stage: ubsan (undefined behavior, recovery disabled, full suite) =="
    configure_and_build "$ROOT/build-check-ubsan" -DCPT_SANITIZE=undefined
    run_ctest "$ROOT/build-check-ubsan"
}

stage_asan() {
    echo "== stage: asan (address sanitizer, full suite) =="
    configure_and_build "$ROOT/build-check-asan" -DCPT_SANITIZE=address
    ASAN_OPTIONS=detect_leaks=0 run_ctest "$ROOT/build-check-asan"
}

stage_tsan() {
    echo "== stage: tsan (thread sanitizer, concurrency- and serve-labeled tests, sharded training) =="
    configure_and_build "$ROOT/build-check-tsan" -DCPT_SANITIZE=thread
    run_ctest "$ROOT/build-check-tsan" -L concurrency
    # serve_test is labeled serve (a binary keeps one label), but it is what
    # steps several slice engines' decoders concurrently.
    run_ctest "$ROOT/build-check-tsan" -L serve
    # The training determinism suite is labeled train, not concurrency, but it
    # is what drives the data-parallel shard lanes concurrently.
    run_ctest "$ROOT/build-check-tsan" -R 'TrainDeterminism'
}

host_simd_tiers() {
    # Mirrors util::detect_simd_tier: scalar always; avx2 only when the host
    # advertises both avx2 and fma.
    local tiers="scalar"
    if grep -q '\bavx2\b' /proc/cpuinfo 2>/dev/null &&
        grep -q '\bfma\b' /proc/cpuinfo 2>/dev/null; then
        tiers="$tiers avx2"
    fi
    echo "$tiers"
}

host_has_avx512f() {
    # Whether the avx2 tier's decode projections can run 16 lanes wide
    # (util::decode_lanes; DecodeGemmTest skips its 16-lane legs otherwise).
    if grep -q '\bavx512f\b' /proc/cpuinfo 2>/dev/null; then echo yes; else echo no; fi
}

stage_simd() {
    echo "== stage: simd (kernel parity + determinism under each forced tier) =="
    configure_and_build "$RELEASE_DIR"
    local tiers
    tiers="$(host_simd_tiers)"
    echo "host tiers: $tiers (avx512f: $(host_has_avx512f))"
    # Besides kernel parity (SimdParity includes the softmax and attention
    # bit-identity tests and the add/mul exp pin) and thread determinism, the
    # decode GEMM contract per width, the row-invariance pins (decoder churn,
    # SlotBatch co-residents), the sampler's length-cap and greedy identities
    # and the training kernels run with each tier forced as the process
    # default.
    for t in $tiers; do
        echo "-- CPT_SIMD=$t: parity + determinism suites"
        CPT_SIMD="$t" run_ctest "$RELEASE_DIR" -R \
            'SimdParity|GemmBitExact|DecodeGemm|ParallelDeterminism|ChurnRowMap|SlotBatchInvariance|TrainKernels|SamplerTest\.(GenerateBatchStopsExactlyAtTheLengthCap|GreedyStreamsDependOnlyOnTheBootstrapEvent)'
    done
}

stage_serve() {
    echo "== stage: serve (labeled tests + daemon smoke: loadtest, malformed request, graceful drain) =="
    local dir="$RELEASE_DIR"
    configure_and_build "$dir"
    run_ctest "$dir" -L serve

    local log="$dir/cpt_serve.log"
    rm -rf "$dir/serve-hub"
    # Four decode lanes per slice whatever the host's core count, so the
    # concurrent loadtest below can open more than one.
    CPT_THREADS=4 "$dir/examples/cpt_serve" --hub="$dir/serve-hub" --bootstrap --ues=40 \
        --port=0 >"$log" 2>&1 &
    local daemon=$!
    # The daemon picks an ephemeral port and prints it on the listening line.
    local port=""
    for _ in $(seq 1 120); do
        port="$(sed -n 's/^cpt_serve: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")"
        [ -n "$port" ] && break
        if ! kill -0 "$daemon" 2>/dev/null; then
            echo "cpt_serve exited before listening:" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.5
    done
    if [ -z "$port" ]; then
        echo "cpt_serve never reported its port:" >&2
        cat "$log" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    # Four connections keep four requests on the one slice at once, so the
    # slice decodes them on several lanes.
    if ! "$dir/examples/serve_loadtest" --port="$port" --requests=16 --count=8 --threads=4 \
        --max-len=64; then
        echo "serve_loadtest failed against the smoke daemon" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    # A malformed request (max_stream_len 1, below the two-event minimum)
    # must be answered with an error, so the loadtest sees no success and
    # exits non-zero, and the daemon must still be alive afterwards.
    if "$dir/examples/serve_loadtest" --port="$port" --requests=1 --count=1 --threads=1 \
        --max-len=1; then
        echo "serve_loadtest succeeded with max_stream_len 1 (expected a rejection)" >&2
        kill "$daemon" 2>/dev/null || true
        return 1
    fi
    if ! kill -0 "$daemon" 2>/dev/null; then
        echo "cpt_serve died on a malformed request:" >&2
        cat "$log" >&2
        return 1
    fi
    # Graceful drain: SIGTERM must produce a clean exit and the drain marker.
    kill -TERM "$daemon"
    local status=0
    wait "$daemon" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "cpt_serve exited with status $status after SIGTERM:" >&2
        cat "$log" >&2
        return 1
    fi
    if ! grep -q "cpt_serve: drained cleanly" "$log"; then
        echo "cpt_serve log lacks the clean-drain marker:" >&2
        cat "$log" >&2
        return 1
    fi
    # The drained stats: all 16 loadtest requests completed, on 2+ lanes.
    local lanes
    lanes="$(sed -n 's/.*"lanes": \([0-9]*\)}.*/\1/p' "$log" | head -n 1)"
    if ! grep -q '"completed": 16,' "$log" || [ -z "$lanes" ] || [ "$lanes" -lt 2 ]; then
        echo "drained stats lack 16 completed requests on 2 or more lanes:" >&2
        cat "$log" >&2
        return 1
    fi
    echo "serve smoke: loadtest ok on $lanes lanes, malformed request rejected, clean drain" \
        "confirmed on port $port"
}

# Waits for a daemon to print its "listening on" line and echoes the port.
# Fails (empty output) if the daemon exits or stays silent.
await_listen_port() { # <log> <pid> <daemon name as printed>
    local log="$1" pid="$2" name="$3" port=""
    for _ in $(seq 1 120); do
        port="$(sed -n "s/^$name: listening on 127\.0\.0\.1:\([0-9]*\).*$/\1/p" "$log")"
        [ -n "$port" ] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.5
    done
    echo "$port"
}

stage_router() {
    echo "== stage: router (sharded serving: 2 backends + router, mid-load backend kill) =="
    local dir="$RELEASE_DIR"
    configure_and_build "$dir"

    local b1log="$dir/router_backend1.log" b2log="$dir/router_backend2.log"
    local rlog="$dir/cpt_router.log" ltlog="$dir/router_loadtest.log"
    rm -rf "$dir/router-hub"

    # Backend 1 bootstraps the shared hub (phone/h9); backend 2 serves the
    # same release — the byte-identical-failover precondition.
    "$dir/examples/cpt_serve" --hub="$dir/router-hub" --bootstrap --ues=40 --port=0 \
        >"$b1log" 2>&1 &
    local b1=$!
    local p1
    p1="$(await_listen_port "$b1log" "$b1" cpt_serve)"
    if [ -z "$p1" ]; then
        echo "backend 1 never listened:" >&2
        cat "$b1log" >&2
        kill "$b1" 2>/dev/null || true
        return 1
    fi
    "$dir/examples/cpt_serve" --hub="$dir/router-hub" --port=0 >"$b2log" 2>&1 &
    local b2=$!
    local p2
    p2="$(await_listen_port "$b2log" "$b2" cpt_serve)"
    if [ -z "$p2" ]; then
        echo "backend 2 never listened:" >&2
        cat "$b2log" >&2
        kill "$b1" "$b2" 2>/dev/null || true
        return 1
    fi

    # --print-owner names the slice's ring owner, i.e. the backend whose
    # mid-load death the failover path must absorb.
    "$dir/examples/cpt_router" --backends="127.0.0.1:$p1,127.0.0.1:$p2" --port=0 \
        --print-owner=phone/h9 >"$rlog" 2>&1 &
    local router=$!
    local rport
    rport="$(await_listen_port "$rlog" "$router" cpt_router)"
    if [ -z "$rport" ]; then
        echo "router never listened:" >&2
        cat "$rlog" >&2
        kill "$b1" "$b2" "$router" 2>/dev/null || true
        return 1
    fi
    local owner_port victim
    owner_port="$(sed -n 's/^cpt_router: owner(phone\/h9) = 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$rlog")"
    if [ "$owner_port" = "$p1" ]; then
        victim=$b1
    elif [ "$owner_port" = "$p2" ]; then
        victim=$b2
    else
        echo "router printed no usable owner (got '$owner_port'):" >&2
        cat "$rlog" >&2
        kill "$b1" "$b2" "$router" 2>/dev/null || true
        return 1
    fi

    # Open-loop load through the router; SIGTERM the owner mid-run. The owner
    # drains its in-flight work, later arrivals fail over to the survivor, and
    # --require-all asserts zero dropped requests end to end.
    "$dir/examples/serve_loadtest" --port="$rport" --rate=40 --requests=80 --threads=8 \
        --count=2 --max-len=16 --require-all >"$ltlog" 2>&1 &
    local lt=$!
    sleep 0.7
    kill -TERM "$victim"
    local lt_status=0
    wait "$lt" || lt_status=$?
    local victim_status=0
    wait "$victim" || victim_status=$?
    if [ "$lt_status" -ne 0 ]; then
        echo "loadtest dropped requests across the backend kill:" >&2
        cat "$ltlog" >&2
        kill "$b1" "$b2" "$router" 2>/dev/null || true
        return 1
    fi
    if [ "$victim_status" -ne 0 ]; then
        echo "killed backend exited with status $victim_status (expected clean drain)" >&2
        kill "$b1" "$b2" "$router" 2>/dev/null || true
        return 1
    fi
    local failovers
    failovers="$(sed -n 's/.*"failovers": \([0-9]*\).*/\1/p' "$ltlog" | head -n 1)"
    if [ -z "$failovers" ] || [ "$failovers" -lt 1 ]; then
        echo "router stats show no failover (got '${failovers:-none}'):" >&2
        cat "$ltlog" >&2
        kill "$b1" "$b2" "$router" 2>/dev/null || true
        return 1
    fi

    # Graceful teardown: router and surviving backend both drain cleanly.
    kill -TERM "$router"
    local status=0
    wait "$router" || status=$?
    if [ "$status" -ne 0 ] || ! grep -q "cpt_router: drained cleanly" "$rlog"; then
        echo "router did not drain cleanly (status $status):" >&2
        cat "$rlog" >&2
        kill "$b1" "$b2" 2>/dev/null || true
        return 1
    fi
    local survivor=$b1
    [ "$victim" = "$b1" ] && survivor=$b2
    kill -TERM "$survivor"
    status=0
    wait "$survivor" || status=$?
    local slog="$b1log"
    [ "$survivor" = "$b2" ] && slog="$b2log"
    if [ "$status" -ne 0 ] || ! grep -q "cpt_serve: drained cleanly" "$slog"; then
        echo "surviving backend did not drain cleanly (status $status):" >&2
        cat "$slog" >&2
        return 1
    fi
    echo "router smoke: $failovers failover(s), zero dropped requests, clean drains"
}

stage_train() {
    echo "== stage: train (labeled tests, then determinism rerun with CPT_THREADS=2 and 3) =="
    local dir="$RELEASE_DIR"
    configure_and_build "$dir"
    run_ctest "$dir" -L train
    # The training-path determinism contract says CPT_THREADS is a pure
    # performance knob; rerun the pinning suite with a pool configured, once
    # at 3 threads, where 4-window shards and pool lanes do not divide evenly.
    CPT_THREADS=2 run_ctest "$dir" -R 'TrainDeterminism'
    CPT_THREADS=3 run_ctest "$dir" -R 'TrainDeterminism'
}

stage_scale() {
    echo "== stage: scale (scale-labeled tests + 50k-UE streaming smoke with RSS bound) =="
    local dir="$RELEASE_DIR"
    configure_and_build "$dir"
    run_ctest "$dir" -L scale
    # End-to-end streaming smoke: generate a 50k-UE world straight to the
    # columnar format, replay it through the streaming linter, and evaluate
    # streaming fidelity — all of which must stay under the RSS bound, proving
    # the O(chunk + sketches) memory contract (DESIGN.md §14). The bound is
    # ~7x the measured peak, so it only trips on an actual O(population) leak.
    (cd "$dir/bench" && ./bench_scale --pops=50000 --assert-rss-mb=200)
}

all_stages=(werror tidy annotate sa ubsan asan tsan simd serve router train scale)

run_stage() {
    case "$1" in
        werror) stage_werror ;;
        tidy) stage_tidy ;;
        annotate) stage_annotate ;;
        sa) stage_sa ;;
        ubsan) stage_ubsan ;;
        asan) stage_asan ;;
        tsan) stage_tsan ;;
        simd) stage_simd ;;
        serve) stage_serve ;;
        router) stage_router ;;
        train) stage_train ;;
        scale) stage_scale ;;
        *)
            echo "unknown stage '$1' (expected: ${all_stages[*]})" >&2
            exit 2
            ;;
    esac
}

# Internal single-stage entry point. The driver below re-execs itself with
# --stage for each requested stage: `if bash "$0" --stage x` keeps errexit
# live inside the stage (bash disables `set -e` recursively inside functions
# called from an `if` condition, so running the stage function directly under
# the driver's pass/fail capture would silently ignore mid-stage failures).
if [ "${1:-}" = "--stage" ]; then
    if [ $# -ne 2 ]; then
        echo "--stage takes exactly one stage name" >&2
        exit 2
    fi
    run_stage "$2"
    exit 0
fi

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=("${all_stages[@]}")
fi
for s in "${stages[@]}"; do
    case " ${all_stages[*]} " in
        *" $s "*) ;;
        *)
            echo "unknown stage '$s' (expected: ${all_stages[*]})" >&2
            exit 2
            ;;
    esac
done

declare -a stage_status=()
first_failed=""
failed_count=0
for s in "${stages[@]}"; do
    if bash "$0" --stage "$s"; then
        stage_status+=("PASS")
    else
        stage_status+=("FAIL")
        failed_count=$((failed_count + 1))
        if [ -z "$first_failed" ]; then
            first_failed="$s"
        fi
    fi
done

echo
echo "== stage summary =="
for i in "${!stages[@]}"; do
    printf '  %-10s %s\n' "${stages[$i]}" "${stage_status[$i]}"
done
if [ "$failed_count" -gt 0 ]; then
    echo "FAILED: first failing stage was '$first_failed' ($failed_count of ${#stages[@]} stages failed)" >&2
    exit 1
fi
echo "== all requested stages passed =="
