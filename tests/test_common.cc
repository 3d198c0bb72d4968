/**
 * @file
 * Unit tests for the common substrate: RNG, stats, sync primitives,
 * thread pool, parallel sort, and the concurrent hash map.
 */
#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/concurrent_hash_map.h"
#include "common/parallel_sort.h"
#include "common/random.h"
#include "common/spinlock.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace igs {
namespace {

// ---------------------------------------------------------------- random
TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += a() == b() ? 1 : 0;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 20}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(r.below(bound), bound);
        }
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng r(11);
    constexpr std::uint64_t kBuckets = 10;
    std::vector<int> counts(kBuckets, 0);
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
        ++counts[r.below(kBuckets)];
    }
    for (int c : counts) {
        EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, PowerLawBounded)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i) {
        const auto k = r.power_law(2.0, 1000);
        ASSERT_GE(k, 1u);
        ASSERT_LE(k, 1000u);
    }
}

TEST(Rng, PowerLawIsSkewed)
{
    Rng r(5);
    int ones = 0;
    for (int i = 0; i < 10000; ++i) {
        ones += r.power_law(2.0, 1000) == 1 ? 1 : 0;
    }
    // For alpha=2, P(1) is large (> a third of the mass).
    EXPECT_GT(ones, 3000);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

// ---------------------------------------------------------------- stats
TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, MeanAndMax)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(max_of({1.0, 5.0, 3.0}), 5.0);
}

TEST(Stats, HistogramBasics)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    h.add(3);
    h.add(3);
    h.add(10, 5);
    EXPECT_EQ(h.at(3), 2u);
    EXPECT_EQ(h.at(10), 5u);
    EXPECT_EQ(h.at(4), 0u);
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.max_key(), 10u);
}

TEST(Table, AlignsColumns)
{
    TextTable t({"a", "long-header"});
    t.row().cell(std::string("x")).cell(1.5, 1);
    t.row().cell(std::uint64_t{42}).cell(std::string("y"));
    const std::string s = t.str();
    EXPECT_NE(s.find("long-header"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    // Header + rule + 2 rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

// ----------------------------------------------------------- spinlock
TEST(Spinlock, MutualExclusion)
{
    Spinlock lock;
    int counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 10000; ++i) {
                std::lock_guard lk(lock);
                ++counter;
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(counter, 40000);
}

TEST(Spinlock, TryLock)
{
    Spinlock lock;
    EXPECT_TRUE(lock.try_lock());
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

// ---------------------------------------------------------- thread pool
TEST(ThreadPool, RunReachesAllWorkers)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(4);
    pool.run([&](std::size_t tid) { hits[tid].fetch_add(1); });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> counts(kN);
    pool.parallel_for(0, kN, [&](std::size_t i) { counts[i].fetch_add(1); },
                      64);
    for (const auto& c : counts) {
        ASSERT_EQ(c.load(), 1);
    }
}

TEST(ThreadPool, ParallelForEmptyRange)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelChunksPartitionIsExact)
{
    ThreadPool pool(3);
    constexpr std::size_t kN = 5000;
    std::atomic<std::size_t> total{0};
    pool.parallel_chunks(0, kN,
                         [&](std::size_t, std::size_t lo, std::size_t hi) {
                             total.fetch_add(hi - lo);
                         },
                         128);
    EXPECT_EQ(total.load(), kN);
}

TEST(ThreadPool, SingleThreadPoolStillWorks)
{
    ThreadPool pool(1);
    std::size_t sum = 0;
    pool.parallel_for(0, 100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 4950u);
}

// --------------------------------------------------------- parallel sort
class ParallelSortTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelSortTest, MatchesStdStableSort)
{
    const std::size_t n = GetParam();
    Rng r(n + 1);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> data(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Narrow key range forces ties, exercising stability.
        data[i] = {static_cast<std::uint32_t>(r.below(64)),
                   static_cast<std::uint32_t>(i)};
    }
    auto expected = data;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    ThreadPool pool(4);
    parallel_stable_sort(data.begin(), data.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         },
                         pool);
    // Exact equality (including the payload order) proves stability.
    EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelSortTest,
                         ::testing::Values(0, 1, 2, 100, 8192, 8193, 50000,
                                           131072));

// ------------------------------------------------- concurrent hash map
TEST(ConcurrentHashMap, UpdateAndFind)
{
    ConcurrentHashMap<std::uint32_t, std::uint32_t> map(16);
    map.update(5, [](std::uint32_t& v) { v += 3; });
    map.update(5, [](std::uint32_t& v) { v += 4; });
    map.update(9, [](std::uint32_t& v) { v = 1; });
    ASSERT_NE(map.find(5), nullptr);
    EXPECT_EQ(*map.find(5), 7u);
    EXPECT_EQ(*map.find(9), 1u);
    EXPECT_EQ(map.find(6), nullptr);
    EXPECT_EQ(map.size(), 2u);
}

TEST(ConcurrentHashMap, GrowsBeyondInitialCapacity)
{
    ConcurrentHashMap<std::uint32_t, std::uint32_t> map(4, 2);
    for (std::uint32_t k = 0; k < 5000; ++k) {
        map.update(k, [](std::uint32_t& v) { ++v; });
    }
    EXPECT_EQ(map.size(), 5000u);
    for (std::uint32_t k = 0; k < 5000; ++k) {
        ASSERT_NE(map.find(k), nullptr);
        ASSERT_EQ(*map.find(k), 1u);
    }
}

TEST(ConcurrentHashMap, ConcurrentAccumulationIsExact)
{
    ConcurrentHashMap<std::uint32_t, std::uint64_t> map(1024);
    ThreadPool pool(4);
    constexpr std::size_t kOps = 100000;
    pool.parallel_for(0, kOps, [&](std::size_t i) {
        map.update(static_cast<std::uint32_t>(i % 257),
                   [](std::uint64_t& v) { ++v; });
    });
    std::uint64_t total = 0;
    map.for_each([&](std::uint32_t, std::uint64_t v) { total += v; });
    EXPECT_EQ(total, kOps);
    EXPECT_EQ(map.size(), 257u);
}

TEST(ConcurrentHashMap, ClearKeepsWorking)
{
    ConcurrentHashMap<std::uint32_t, std::uint32_t> map(16);
    map.update(1, [](std::uint32_t& v) { v = 7; });
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(1), nullptr);
    map.update(1, [](std::uint32_t& v) { v += 2; });
    EXPECT_EQ(*map.find(1), 2u);
}

} // namespace
} // namespace igs
