/**
 * @file
 * Concurrency stress tests — the TSan leg's primary workload
 * (tools/check_matrix.sh tsan) and the runtime half of the static
 * thread-safety story: ConcurrentHashMap under write contention, the
 * per-vertex Spinlock path of the baseline updater from N real threads,
 * ThreadPool fork/join handshakes, and the debug-mode Spinlock owner
 * assertion (double unlock must trip IGS_CHECK, not corrupt state).
 */
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/concurrent_hash_map.h"
#include "common/spinlock.h"
#include "common/thread_pool.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/hybrid_store.h"
#include "graph/store_tuning.h"
#include "stream/batch.h"
#include "stream/reorder.h"
#include "stream/update_context.h"
#include "stream/updaters.h"

namespace igs {
namespace {

constexpr std::size_t kThreads = 8;

/** Run `fn(thread_index)` on `n` plain std::threads and join them. */
template <typename Fn>
void
on_threads(std::size_t n, Fn&& fn)
{
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
        threads.emplace_back([&fn, t] { fn(t); });
    }
    for (auto& th : threads) {
        th.join();
    }
}

// ----------------------------------------------------- ConcurrentHashMap

TEST(ConcurrencyHashMap, ParallelUpdatesSumExactly)
{
    constexpr std::size_t kOpsPerThread = 20000;
    constexpr std::uint64_t kKeys = 512;
    ConcurrentHashMap<std::uint64_t, std::uint64_t> map(kKeys);

    on_threads(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < kOpsPerThread; ++i) {
            const std::uint64_t key = (t * 7919 + i * 31) % kKeys;
            map.update(key, [](std::uint64_t& v) { ++v; });
        }
    });

    std::uint64_t total = 0;
    map.for_each([&](std::uint64_t, std::uint64_t v) { total += v; });
    EXPECT_EQ(total, kThreads * kOpsPerThread);
    EXPECT_EQ(map.size(), kKeys);
}

TEST(ConcurrencyHashMap, SingleShardContentionAndGrowth)
{
    // One shard serializes every writer on one Spinlock, and the tiny
    // initial capacity forces grow() to run under contention.
    ConcurrentHashMap<std::uint64_t, std::uint64_t> map(/*expected_size=*/4,
                                                        /*shards=*/1);
    constexpr std::size_t kOpsPerThread = 4000;
    on_threads(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < kOpsPerThread; ++i) {
            map.update(t * kOpsPerThread + i, [](std::uint64_t& v) { ++v; });
        }
    });
    EXPECT_EQ(map.size(), kThreads * kOpsPerThread);
}

// --------------------------------------------------------------- Spinlock

TEST(ConcurrencySpinlock, MutualExclusionOverPlainCounter)
{
    Spinlock lock;
    std::uint64_t counter = 0; // deliberately non-atomic: the lock is the
                               // only thing keeping this race-free
    constexpr std::size_t kIters = 50000;
    on_threads(kThreads, [&](std::size_t) {
        for (std::size_t i = 0; i < kIters; ++i) {
            SpinlockGuard lk(lock);
            ++counter;
        }
    });
    EXPECT_EQ(counter, kThreads * kIters);
}

TEST(ConcurrencySpinlock, TryLockRespectsHolder)
{
    Spinlock lock;
    lock.lock();
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(ConcurrencySpinlock, SpinlockArrayIndexesIndependentLocks)
{
    SpinlockArray locks(4);
    ASSERT_EQ(locks.size(), 4u);
    locks[0].lock();
    EXPECT_TRUE(locks[1].try_lock()); // distinct lock, not blocked by [0]
    locks[1].unlock();
    locks[0].unlock();
    locks.resize(8);
    EXPECT_EQ(locks.size(), 8u);
    EXPECT_TRUE(locks[7].try_lock());
    locks[7].unlock();
}

#if defined(__SANITIZE_THREAD__)
#define IGS_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IGS_TEST_TSAN 1
#endif
#endif

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST) && \
    !defined(IGS_TEST_TSAN)
// Debug builds track the owning thread; unlocking a lock this thread does
// not hold must abort via IGS_CHECK instead of silently releasing someone
// else's critical section. (Skipped under TSan: death tests fork, and
// TSan's own report machinery interferes with the abort-message match.)
TEST(ConcurrencySpinlockDeathTest, DoubleUnlockTripsOwnerCheckInDebug)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Spinlock lock;
    lock.lock();
    lock.unlock();
    EXPECT_DEATH(lock.unlock(), "non-owner");
}

TEST(ConcurrencySpinlockDeathTest, UnlockWithoutLockTripsOwnerCheckInDebug)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Spinlock lock;
    EXPECT_DEATH(lock.unlock(), "non-owner");
}
#endif

// -------------------------------------------------------------- ThreadPool

TEST(ConcurrencyThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(kThreads);
    constexpr std::size_t kN = 1 << 18;
    std::vector<std::atomic<std::uint8_t>> seen(kN);
    pool.parallel_for(0, kN, [&](std::size_t i) {
        seen[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(seen[i].load(std::memory_order_relaxed), 1u);
    }
}

TEST(ConcurrencyThreadPool, RepeatedForkJoinEpochsStayCoherent)
{
    ThreadPool pool(kThreads);
    std::atomic<std::uint64_t> sum{0};
    constexpr std::size_t kRounds = 200;
    constexpr std::size_t kN = 1000;
    for (std::size_t r = 0; r < kRounds; ++r) {
        pool.parallel_for(0, kN, [&](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        }, /*chunk=*/16);
    }
    EXPECT_EQ(sum.load(std::memory_order_relaxed),
              kRounds * (kN * (kN - 1) / 2));
}

TEST(ConcurrencyThreadPool, ParallelChunksWorkerIdsInBounds)
{
    ThreadPool pool(kThreads);
    std::atomic<bool> out_of_bounds{false};
    std::atomic<std::uint64_t> covered{0};
    pool.parallel_chunks(0, 100000, [&](std::size_t tid, std::size_t lo,
                                        std::size_t hi) {
        if (tid >= pool.size()) {
            out_of_bounds.store(true, std::memory_order_relaxed);
        }
        covered.fetch_add(hi - lo, std::memory_order_relaxed);
    });
    EXPECT_FALSE(out_of_bounds.load(std::memory_order_relaxed));
    EXPECT_EQ(covered.load(std::memory_order_relaxed), 100000u);
}

// ------------------------------------------------------------- OcaProbe

TEST(ConcurrencyOcaProbe, ConcurrentNotesCountExactly)
{
    stream::OcaProbe probe;
    constexpr std::size_t kNotes = 20000;
    on_threads(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < kNotes; ++i) {
            // Alternate overlapping (prev_bid + 1 == bid) and fresh notes.
            probe.note(i % 2 == 0 ? 4 : 0, 5);
        }
        (void)t;
    });
    EXPECT_EQ(probe.unique_nodes(), kThreads * kNotes);
    EXPECT_EQ(probe.overlapping_nodes(), kThreads * kNotes / 2);
    EXPECT_DOUBLE_EQ(probe.ratio(), 0.5);
}

// --------------------------------------- per-vertex lock path end-to-end

/** A high-contention batch: many edges over few vertices, so every vertex
 *  lock is fought over by multiple workers. Weights stay 1.0f: weight
 *  accumulation commutes exactly for small integers, so parallel and
 *  serial application agree bit-for-bit. */
stream::EdgeBatch
contended_batch(std::size_t n, std::uint64_t seed, double delete_fraction)
{
    gen::StreamModel m;
    m.num_vertices = 48; // few vertices -> heavy per-vertex lock contention
    m.num_hubs = 4;
    m.hub_mass_dst = 0.4;
    m.delete_fraction = delete_fraction;
    m.weighted = false;
    m.seed = seed;
    return stream::EdgeBatch(1, gen::EdgeStreamGenerator(m).take(n));
}

TEST(ConcurrencyUpdatePath, BaselineLockPathMatchesSerialUnderContention)
{
    const stream::EdgeBatch batch = contended_batch(60000, 77, 0.1);

    graph::AdjacencyList serial(64);
    {
        ThreadPool one(1);
        stream::RealContext ctx(one);
        stream::apply_batch_baseline(serial, batch, ctx);
    }

    graph::AdjacencyList parallel(64);
    {
        ThreadPool pool(kThreads);
        stream::RealContext ctx(pool);
        stream::apply_batch_baseline(parallel, batch, ctx);
    }

    EXPECT_TRUE(parallel.same_topology(serial));
    EXPECT_EQ(parallel.num_edges(), serial.num_edges());
}

TEST(ConcurrencyUpdatePath, UscRealPathMatchesBaselineUnderContention)
{
    const stream::EdgeBatch batch = contended_batch(60000, 78, 0.1);

    graph::AdjacencyList baseline(64);
    {
        ThreadPool one(1);
        stream::RealContext ctx(one);
        stream::apply_batch_baseline(baseline, batch, ctx);
    }

    graph::AdjacencyList usc(64);
    {
        ThreadPool pool(kThreads);
        const stream::ReorderedBatch rb =
            stream::reorder_batch(batch.edges(), pool);
        stream::RealContext ctx(pool);
        stream::apply_batch_usc(usc, batch, rb, ctx);
    }

    EXPECT_TRUE(usc.same_topology(baseline));
    EXPECT_EQ(usc.num_edges(), baseline.num_edges());
}

// Same two contention properties on the three-tier hybrid store: tier
// promotions happen under the per-vertex locks (baseline path) or run
// ownership (USC path), so a parallel run must still match the serial
// one exactly.

TEST(ConcurrencyUpdatePath, HybridBaselineLockPathMatchesSerialUnderContention)
{
    const stream::EdgeBatch batch = contended_batch(60000, 79, 0.1);
    graph::StoreTuning tuning;
    tuning.hybrid_sorted_threshold = 16; // hubs cross both tiers

    graph::HybridStore serial(64, tuning);
    {
        ThreadPool one(1);
        stream::RealContext ctx(one);
        stream::apply_batch_baseline(serial, batch, ctx);
    }

    graph::HybridStore parallel(64, tuning);
    {
        ThreadPool pool(kThreads);
        stream::RealContext ctx(pool);
        stream::apply_batch_baseline(parallel, batch, ctx);
    }

    EXPECT_TRUE(parallel.same_topology(serial));
    EXPECT_EQ(parallel.num_edges(), serial.num_edges());
    EXPECT_GT(parallel.tier_census().vertices[2], 0u);
}

TEST(ConcurrencyUpdatePath, HybridUscRealPathMatchesBaselineUnderContention)
{
    const stream::EdgeBatch batch = contended_batch(60000, 80, 0.1);
    graph::StoreTuning tuning;
    tuning.hybrid_sorted_threshold = 16;

    graph::HybridStore baseline(64, tuning);
    {
        ThreadPool one(1);
        stream::RealContext ctx(one);
        stream::apply_batch_baseline(baseline, batch, ctx);
    }

    graph::HybridStore usc(64, tuning);
    {
        ThreadPool pool(kThreads);
        const stream::ReorderedBatch rb =
            stream::reorder_batch(batch.edges(), pool);
        stream::RealContext ctx(pool);
        stream::apply_batch_usc(usc, batch, rb, ctx);
    }

    EXPECT_TRUE(usc.same_topology(baseline));
    EXPECT_EQ(usc.num_edges(), baseline.num_edges());
}

} // namespace
} // namespace igs
