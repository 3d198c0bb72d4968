#!/usr/bin/env bash
# check_matrix.sh — configure + build + run the tier-1 suite under the
# concurrency-correctness matrix:
#
#   asan  ASan + UBSan   (-DIGS_SANITIZE=address,undefined, gcc or clang)
#   tsan  ThreadSanitizer (-DIGS_SANITIZE=thread)
#   tsan-pipeline  focused TSan deep-run of the depth>=2 pipeline tests
#         (test_pipeline's concurrent publish/compute interleavings,
#         DESIGN.md §11) repeated until-fail; shares the tsan build tree
#   asan-hybrid / tsan-hybrid  focused deep-runs of the hybrid-store
#         backend tests (tier promotions under the contended lock and
#         USC paths, DESIGN.md §12) repeated until-fail; share the asan
#         and tsan build trees respectively
#   tsan-incremental  focused TSan deep-run of the incremental-analytics
#         equivalence harness and the depth>=2 dirty-set isolation test
#         (memoized kernel state vs the published snapshot's dirty set,
#         DESIGN.md §14) repeated until-fail; shares the tsan build tree
#   tsan-renumber  focused TSan deep-run of the vertex-id indirection /
#         locality-renumbering suite (renumber at the ingest tail vs the
#         depth>=2 compute stage reading published snapshots, DESIGN.md
#         §16) repeated until-fail; shares the tsan build tree
#   tsa   clang -Wthread-safety as errors (-DIGS_THREAD_SAFETY=ON);
#         compile-only analysis, then the plain test suite.
#         Skipped (with a notice) when no clang++ is on PATH — the
#         annotations compile as no-ops under gcc, so there is nothing
#         to analyze.
#   analyze  tools/igs_analyze.py: every static rule (per-file lint,
#         layer/include/lock-order graphs, hot-path escapes, snapshot
#         lifetimes, backend contracts, telemetry keys, epoch role
#         proofs, atomic publication pairing, hot-path value ranges —
#         the static counterpart of the tsan legs) + fixture self-test
#
# Usage:  tools/check_matrix.sh [leg ...]
#         (default: analyze asan asan-hybrid tsan tsan-pipeline
#          tsan-hybrid tsan-incremental tsan-renumber tsa)
#
# Each leg builds in its own tree (build-check-<leg>) with
# CMAKE_BUILD_TYPE=Debug so IGS_DCHECK and the Spinlock owner assertions
# are live, and with benches/examples off to keep the matrix fast — the
# tier-1 *tests* always build and run in full.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
LEGS=("$@")
if [ ${#LEGS[@]} -eq 0 ]; then
    LEGS=(analyze asan asan-hybrid tsan tsan-pipeline tsan-hybrid
          tsan-incremental tsan-renumber tsa)
fi

# TSan suppressions: intentionally empty unless a race is provably benign
# AND documented inline (see DESIGN.md §8). Every entry needs a comment
# explaining why suppression is sound — prefer fixing with atomics.
TSAN_SUPP="$ROOT/tools/tsan.supp"

PASSED=()
FAILED=()
SKIPPED=()

# Optional per-leg overrides, set by the caller before run_leg:
#   IGS_CHECK_BDIR  build tree to (re)use instead of build-check-<leg>
#   CTEST_EXTRA     extra ctest arguments (array), e.g. a -R filter
run_leg() {
    local leg="$1"; shift
    local bdir="${IGS_CHECK_BDIR:-$ROOT/build-check-$leg}"
    local cmake_extra=("$@")
    local cc_env=()

    echo "=== [$leg] configure ($bdir) ==="
    if ! cmake -B "$bdir" -S "$ROOT" \
            -DCMAKE_BUILD_TYPE=Debug \
            -DIGS_BUILD_BENCH=OFF -DIGS_BUILD_EXAMPLES=OFF \
            "${cmake_extra[@]}"; then
        FAILED+=("$leg (configure)"); return 1
    fi
    echo "=== [$leg] build ==="
    if ! cmake --build "$bdir" -j "$JOBS"; then
        FAILED+=("$leg (build)"); return 1
    fi
    echo "=== [$leg] ctest ==="
    local env_prefix=()
    case "$leg" in
      tsan*)
        if [ -s "$TSAN_SUPP" ]; then
            env_prefix=(env TSAN_OPTIONS="suppressions=$TSAN_SUPP ${TSAN_OPTIONS:-}")
        fi
        ;;
    esac
    if ! (cd "$bdir" && "${env_prefix[@]}" ctest --output-on-failure -j "$JOBS" \
            ${CTEST_EXTRA[@]+"${CTEST_EXTRA[@]}"}); then
        FAILED+=("$leg (ctest)"); return 1
    fi
    PASSED+=("$leg")
}

for leg in "${LEGS[@]}"; do
    case "$leg" in
      analyze)
        echo "=== [analyze] igs_analyze + self-test ==="
        # No --compile-commands: the libclang frontend is optional and
        # picks up build/ when it is configured.
        if python3 "$ROOT/tools/igs_analyze.py" --root "$ROOT" &&
           python3 "$ROOT/tools/igs_analyze.py" --root "$ROOT" --self-test; then
            PASSED+=(analyze)
        else
            FAILED+=(analyze)
        fi
        ;;
      asan)
        run_leg asan -DIGS_SANITIZE=address,undefined
        ;;
      tsan)
        run_leg tsan -DIGS_SANITIZE=thread
        ;;
      tsan-pipeline)
        # The plain tsan leg already runs test_pipeline once as part of
        # the full suite; this leg re-runs the pipeline/epoch tests
        # (which exercise the depth>=2 concurrent publish/compute path)
        # several times to widen schedule coverage.  Reuses the tsan
        # tree, so running after `tsan` costs no extra build.
        IGS_CHECK_BDIR="$ROOT/build-check-tsan"
        CTEST_EXTRA=(-R 'Pipeline|Epochs|SnapshotStore' --repeat until-fail:5)
        run_leg tsan-pipeline -DIGS_SANITIZE=thread
        unset IGS_CHECK_BDIR CTEST_EXTRA
        ;;
      asan-hybrid)
        # Focused ASan deep-run of the hybrid-store tests: tier
        # promotions move edges between the inline record, the sorted
        # heap array and the hash index, so the randomized and
        # cross-backend suites are re-run until-fail to shake out
        # lifetime bugs.  Reuses the asan tree (no extra build after
        # `asan`).
        IGS_CHECK_BDIR="$ROOT/build-check-asan"
        CTEST_EXTRA=(-R 'Hybrid|CrossBackend' --repeat until-fail:3)
        run_leg asan-hybrid -DIGS_SANITIZE=address,undefined
        unset IGS_CHECK_BDIR CTEST_EXTRA
        ;;
      tsan-hybrid)
        # Focused TSan deep-run of the hybrid backend under contention:
        # the contended baseline/USC kernels over HybridStore and the
        # backend-selectable engine (pipeline depth 2 included).  Reuses
        # the tsan tree.
        IGS_CHECK_BDIR="$ROOT/build-check-tsan"
        CTEST_EXTRA=(-R 'Hybrid|CrossBackend' --repeat until-fail:3)
        run_leg tsan-hybrid -DIGS_SANITIZE=thread
        unset IGS_CHECK_BDIR CTEST_EXTRA
        ;;
      tsan-incremental)
        # Focused TSan deep-run of the incremental-analytics suite: the
        # randomized equivalence harness across all three backends plus
        # the depth-2 test where the memoized bundle computes inside the
        # engine's compute callback against the published snapshot.
        # Reuses the tsan tree.
        IGS_CHECK_BDIR="$ROOT/build-check-tsan"
        CTEST_EXTRA=(-R 'Incremental|DirtySet' --repeat until-fail:3)
        run_leg tsan-incremental -DIGS_SANITIZE=thread
        unset IGS_CHECK_BDIR CTEST_EXTRA
        ;;
      tsan-renumber)
        # Focused TSan deep-run of the renumber suite: the engine applies
        # a renumber (live-row move-permute + map rebind) at the ingest
        # tail while the depth>=2 compute stage reads published snapshot
        # copies, so these schedules are the racy-by-construction ones.
        # Reuses the tsan tree.
        IGS_CHECK_BDIR="$ROOT/build-check-tsan"
        CTEST_EXTRA=(-R 'Renumber' --repeat until-fail:3)
        run_leg tsan-renumber -DIGS_SANITIZE=thread
        unset IGS_CHECK_BDIR CTEST_EXTRA
        ;;
      tsa)
        if command -v clang++ >/dev/null 2>&1; then
            CC=clang CXX=clang++ run_leg tsa -DIGS_THREAD_SAFETY=ON \
                -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++
        else
            echo "=== [tsa] SKIPPED: clang++ not found (annotations are" \
                 "no-ops under this toolchain) ==="
            SKIPPED+=(tsa)
        fi
        ;;
      *)
        echo "unknown leg: $leg (known: analyze asan asan-hybrid tsan" \
             "tsan-pipeline tsan-hybrid tsan-incremental tsan-renumber" \
             "tsa)" >&2
        FAILED+=("$leg (unknown)")
        ;;
    esac
done

echo
echo "=== check matrix summary ==="
[ ${#PASSED[@]} -gt 0 ] && echo "passed:  ${PASSED[*]}"
[ ${#SKIPPED[@]} -gt 0 ] && echo "skipped: ${SKIPPED[*]}"
if [ ${#FAILED[@]} -gt 0 ]; then
    echo "FAILED:  ${FAILED[*]}"
    exit 1
fi
exit 0
