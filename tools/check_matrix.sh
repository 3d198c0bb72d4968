#!/usr/bin/env bash
# check_matrix.sh — configure + build + run the tier-1 suite under the
# concurrency-correctness matrix:
#
#   asan  ASan + UBSan   (-DIGS_SANITIZE=address,undefined, gcc or clang)
#   tsan  ThreadSanitizer (-DIGS_SANITIZE=thread)
#   tsan-pipeline  focused TSan deep-run of the pipeline tests
#         (test_pipeline's depth>=2 concurrent publish/compute
#         interleavings and pooled snapshot publication, and the depth-1
#         rounds that read the live store while ingest waits, DESIGN.md
#         §11) repeated until-fail; shares the tsan build tree
#   asan-hybrid / tsan-hybrid  focused deep-runs of the hybrid-store
#         backend tests (tier promotions under the contended lock and
#         USC paths, DESIGN.md §12) and the DAH store tests (the same
#         edge index over a dense array) repeated until-fail; share the
#         asan and tsan build trees respectively
#   tsan-incremental  focused TSan deep-run of the incremental-analytics
#         equivalence harness and the depth>=2 dirty-set isolation test
#         (memoized kernel state vs the published snapshot's dirty set,
#         DESIGN.md §14) repeated until-fail; shares the tsan build tree
#   tsan-kernels  focused TSan deep-run of the update kernels (the
#         cross-path equivalence, the contended baseline/USC paths, the
#         radix reorder against its oracle on pools of 1, 2 and 4, and
#         the USC kernel's one-edge runs against the table path,
#         DESIGN.md §5) repeated until-fail; shares the tsan build tree
#   asan-seeds  the CI seed sweep (IGS_TEST_SEED 1..64) of the seeded
#         harnesses — incremental equivalence, the pending hand-off,
#         the snapshot harnesses, the USC one-edge runs and the
#         HybridStore tier census — under ASan+UBSan; shares the asan
#         build tree
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
#         (default: analyze asan asan-hybrid asan-seeds tsan tsan-pipeline
#          tsan-hybrid tsan-incremental tsan-kernels tsa)
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
    LEGS=(analyze asan asan-hybrid asan-seeds tsan tsan-pipeline
          tsan-hybrid tsan-incremental tsan-kernels tsa)
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
#   SEED_SWEEP      run ctest once per IGS_TEST_SEED in 1..SEED_SWEEP
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
    local seeds=("")
    if [ -n "${SEED_SWEEP:-}" ]; then
        seeds=($(seq 1 "$SEED_SWEEP"))
    fi
    local seed
    for seed in "${seeds[@]}"; do
        local seed_env=()
        if [ -n "$seed" ]; then
            echo "IGS_TEST_SEED=$seed"
            seed_env=(env IGS_TEST_SEED="$seed")
        fi
        if ! (cd "$bdir" && "${seed_env[@]}" "${env_prefix[@]}" ctest \
                --output-on-failure -j "$JOBS" \
                ${CTEST_EXTRA[@]+"${CTEST_EXTRA[@]}"}); then
            FAILED+=("$leg (ctest${seed:+, IGS_TEST_SEED=$seed})"); return 1
        fi
    done
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
        # (which exercise the depth>=2 concurrent publish/compute path,
        # including ComputeExceptionRethrownAtNextJoin: a round's
        # exception handed from the compute thread to the next join;
        # and the depth-1 path, whose rounds read the live rows the
        # update's pool workers wrote before their join:
        # DepthOneRoundReadsLiveStore and its deferred-tail case) and the
        # SnapshotStore tests (pooled publication: pool workers refreshing
        # disjoint dirty vertices' rows and change marks) several times
        # to widen schedule coverage.  Reuses the tsan tree, so running
        # after `tsan` costs no extra build.
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
        # lifetime bugs, with the shared vertex table's contract suite
        # (its bid and lock arrays grow by reallocation) and the DAH
        # suites (its hashed rows reallocate the same dense array and
        # edge index).  Reuses the asan tree (no extra build after
        # `asan`).
        IGS_CHECK_BDIR="$ROOT/build-check-asan"
        CTEST_EXTRA=(-R 'Hybrid|CrossBackend|LiveStoreContract|DegreeAwareHash|Dah' --repeat until-fail:3)
        run_leg asan-hybrid -DIGS_SANITIZE=address,undefined
        unset IGS_CHECK_BDIR CTEST_EXTRA
        ;;
      tsan-hybrid)
        # Focused TSan deep-run of the hybrid backend under contention:
        # the contended baseline/USC kernels over HybridStore (with the
        # promotion counts its pool workers keep for the tier census,
        # CensusCountsMatchScan), the backend-selectable engine
        # (pipeline depth 2 included), the shared vertex table's
        # contract suite and the DAH suites over the same edge index.
        # Reuses the tsan tree.
        IGS_CHECK_BDIR="$ROOT/build-check-tsan"
        CTEST_EXTRA=(-R 'Hybrid|CrossBackend|LiveStoreContract|DegreeAwareHash|Dah' --repeat until-fail:3)
        run_leg tsan-hybrid -DIGS_SANITIZE=thread
        unset IGS_CHECK_BDIR CTEST_EXTRA
        ;;
      tsan-incremental)
        # Focused TSan deep-run of the incremental-analytics suite: the
        # randomized equivalence harness across all three backends
        # (MultiBatchWindows included: OCA-style hand-offs of 2-3
        # batches), the IncrementalTrim work cases, plus the depth-2
        # test where the memoized bundle computes inside the engine's
        # compute callback against the published snapshot.  Reuses the
        # tsan tree.
        IGS_CHECK_BDIR="$ROOT/build-check-tsan"
        CTEST_EXTRA=(-R 'Incremental|DirtySet' --repeat until-fail:3)
        run_leg tsan-incremental -DIGS_SANITIZE=thread
        unset IGS_CHECK_BDIR CTEST_EXTRA
        ;;
      asan-seeds)
        # The CI workflow's seed sweep: every seeded harness over
        # IGS_TEST_SEED 1..64 (a failure names its seed), here under
        # ASan+UBSan.  Reuses the asan tree.
        IGS_CHECK_BDIR="$ROOT/build-check-asan"
        CTEST_EXTRA=(-R '^(IncrementalEquivalence|PendingAccumulator|SnapshotStore|UscOneEdgeRun)\.|^HybridStore\.CensusCountsMatchScan$')
        SEED_SWEEP=64
        run_leg asan-seeds -DIGS_SANITIZE=address,undefined
        unset IGS_CHECK_BDIR CTEST_EXTRA SEED_SWEEP
        ;;
      tsan-kernels)
        # Focused TSan deep-run of the update kernels: the parallel
        # radix passes (pools of 1, 2 and 4 in RadixOracleTest) and the
        # USC run body (the one-edge path and the table path under run
        # ownership), with the kernels' cross-path equivalence and the
        # contended baseline/USC paths.  Reuses the tsan tree.
        IGS_CHECK_BDIR="$ROOT/build-check-tsan"
        CTEST_EXTRA=(-R 'KernelEquivalence|ConcurrencyUpdatePath|RadixOracle|UscOneEdgeRun'
                     --repeat until-fail:3)
        run_leg tsan-kernels -DIGS_SANITIZE=thread
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
        echo "unknown leg: $leg (known: analyze asan asan-hybrid" \
             "asan-seeds tsan tsan-pipeline tsan-hybrid tsan-incremental" \
             "tsan-kernels tsa)" >&2
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
