/**
 * @file
 * Tests for the dynamic graph structures: AdjacencyList and
 * DegreeAwareHash — including randomized cross-structure equivalence
 * properties — and the vertex-table contract all three stores share
 * through graph::LiveStore (typed over AdjacencyList, HybridStore and
 * DegreeAwareHash).
 */
#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_counter.h"
#include "common/flat_table.h"
#include "common/random.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "graph/hybrid_store.h"
#include "graph/store_tuning.h"

#include "test_support.h"

namespace igs::graph {
namespace {

// ------------------------------------------------------- adjacency list
TEST(AdjacencyList, InsertCreatesBothViews)
{
    AdjacencyList g(4);
    const auto r = g.apply_insert(1, {2, 1.0f}, Direction::kOut);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.probes, 0u);
    g.apply_insert(2, {1, 1.0f}, Direction::kIn);
    EXPECT_EQ(g.degree(1, Direction::kOut), 1u);
    EXPECT_EQ(g.degree(2, Direction::kIn), 1u);
    EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AdjacencyList, DuplicateInsertAccumulatesWeight)
{
    AdjacencyList g(4);
    g.apply_insert(0, {1, 2.0f}, Direction::kOut);
    const auto r = g.apply_insert(0, {1, 3.0f}, Direction::kOut);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.probes, 1u);
    EXPECT_EQ(g.degree(0, Direction::kOut), 1u);
    EXPECT_FLOAT_EQ(g.edges(0, Direction::kOut)[0].weight, 5.0f);
    EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AdjacencyList, ProbesCountScanPosition)
{
    AdjacencyList g(8);
    for (VertexId t = 1; t <= 5; ++t) {
        g.apply_insert(0, {t, 1.0f}, Direction::kOut);
    }
    // Duplicate of the 3rd inserted edge: scan stops after 3 probes.
    const auto r = g.apply_insert(0, {3, 1.0f}, Direction::kOut);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.probes, 3u);
    EXPECT_EQ(r.len_before, 5u);
    // A miss probes the full array.
    const auto miss = g.apply_insert(0, {7, 1.0f}, Direction::kOut);
    EXPECT_FALSE(miss.found);
    EXPECT_EQ(miss.probes, 5u);
}

TEST(AdjacencyList, RemoveExistingAndMissing)
{
    AdjacencyList g(4);
    g.apply_insert(0, {1, 1.0f}, Direction::kOut);
    g.apply_insert(0, {2, 1.0f}, Direction::kOut);
    const auto hit = g.apply_remove(0, 1, Direction::kOut);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(g.degree(0, Direction::kOut), 1u);
    EXPECT_EQ(g.num_edges(), 1u);
    const auto miss = g.apply_remove(0, 9, Direction::kOut);
    EXPECT_FALSE(miss.found);
    EXPECT_EQ(g.num_edges(), 1u);
}

TEST(AdjacencyList, SameTopologyIsOrderInsensitive)
{
    AdjacencyList a(3);
    AdjacencyList b(3);
    a.apply_insert(0, {1, 1.0f}, Direction::kOut);
    a.apply_insert(0, {2, 1.0f}, Direction::kOut);
    b.apply_insert(0, {2, 1.0f}, Direction::kOut);
    b.apply_insert(0, {1, 1.0f}, Direction::kOut);
    EXPECT_TRUE(a.same_topology(b));
    b.apply_insert(1, {2, 1.0f}, Direction::kOut);
    EXPECT_FALSE(a.same_topology(b));
}

TEST(AdjacencyList, MoveTransfersState)
{
    AdjacencyList a(4);
    a.apply_insert(0, {1, 1.0f}, Direction::kOut);
    a.exchange_latest_bid(3, 5);
    AdjacencyList b(std::move(a));
    EXPECT_EQ(b.num_vertices(), 4u);
    EXPECT_EQ(b.num_edges(), 1u);
    EXPECT_EQ(b.latest_bid(3), 5u);
}

// --------------------------------------------------- degree-aware hash
TEST(DegreeAwareHash, MigratesToHashAtThreshold)
{
    const std::uint32_t threshold = StoreTuning{}.dah_hash_threshold;
    DegreeAwareHash g(2);
    for (VertexId t = 0; t < threshold - 1; ++t) {
        g.apply_insert(0, {t + 100, 1.0f}, Direction::kOut);
    }
    EXPECT_FALSE(g.edge_set(0, Direction::kOut).hashed());
    g.apply_insert(0, {999, 1.0f}, Direction::kOut);
    EXPECT_TRUE(g.edge_set(0, Direction::kOut).hashed());
    EXPECT_EQ(g.degree(0, Direction::kOut), threshold);
}

TEST(DegreeAwareHash, DuplicateAccumulatesAcrossMigration)
{
    DegreeAwareHash g(2);
    for (VertexId t = 0; t < 64; ++t) {
        g.apply_insert(0, {t, 1.0f}, Direction::kOut);
    }
    const auto r = g.apply_insert(0, {10, 2.5f}, Direction::kOut);
    EXPECT_TRUE(r.found);
    const auto sorted = g.sorted_edges(0, Direction::kOut);
    const auto it =
        std::find_if(sorted.begin(), sorted.end(),
                     [](const Neighbor& n) { return n.id == 10; });
    ASSERT_NE(it, sorted.end());
    EXPECT_FLOAT_EQ(it->weight, 3.5f);
}

/** Randomized insert/remove against a std::map reference. */
class DahRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DahRandomTest, MatchesReferenceModel)
{
    Rng rng(GetParam());
    DegreeAwareHash g(8);
    std::map<VertexId, float> reference;
    for (int op = 0; op < 4000; ++op) {
        const auto t = static_cast<VertexId>(rng.below(200));
        if (rng.chance(0.3) && !reference.empty()) {
            // Remove a random-ish key (may or may not exist).
            const auto victim = static_cast<VertexId>(rng.below(200));
            const auto r = g.apply_remove(0, victim, Direction::kOut);
            EXPECT_EQ(r.found, reference.erase(victim) > 0);
        } else {
            const float w = static_cast<float>(rng.uniform(0.5, 1.5));
            const auto r = g.apply_insert(0, {t, w}, Direction::kOut);
            EXPECT_EQ(r.found, reference.count(t) > 0);
            reference[t] += w;
        }
    }
    const auto sorted = g.sorted_edges(0, Direction::kOut);
    ASSERT_EQ(sorted.size(), reference.size());
    std::size_t i = 0;
    for (const auto& [id, w] : reference) {
        EXPECT_EQ(sorted[i].id, id);
        EXPECT_NEAR(sorted[i].weight, w, 1e-3);
        ++i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DahRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------- the shared vertex table (LiveStore)

constexpr Direction kOut = Direction::kOut;
constexpr Direction kIn = Direction::kIn;

/** A store with thresholds low enough that a dozen edges cross every
 *  representation change of the adaptive stores. */
template <typename Store>
Store
make_store(std::size_t num_vertices)
{
    if constexpr (std::is_same_v<Store, AdjacencyList>) {
        return Store(num_vertices);
    } else {
        return Store(num_vertices, testutil::tight_tuning());
    }
}

/** `v`'s `dir` row in storage order — what publication copies. */
template <typename Store>
std::vector<Neighbor>
row_of(const Store& g, VertexId v, Direction dir)
{
    const auto& view = g.edges(v, dir);
    return {view.begin(), view.end()};
}

/** Lowest index below `after.size()` whose entry differs from `before`
 *  (kRowUnchanged if none): where publication must start copying. */
std::uint32_t
first_change(const std::vector<Neighbor>& before,
             const std::vector<Neighbor>& after)
{
    for (std::size_t i = 0; i < after.size(); ++i) {
        if (i >= before.size() || before[i] != after[i]) {
            return static_cast<std::uint32_t>(i);
        }
    }
    return kRowUnchanged;
}

template <typename Store>
class LiveStoreContract : public ::testing::Test {};

using LiveStores =
    ::testing::Types<AdjacencyList, HybridStore, DegreeAwareHash>;
TYPED_TEST_SUITE(LiveStoreContract, LiveStores);

TYPED_TEST(LiveStoreContract, MoveLeavesSourceEmptyAndReusable)
{
    static_assert(std::is_nothrow_move_constructible_v<TypeParam>);
    static_assert(!std::is_move_assignable_v<TypeParam>);
    constexpr std::size_t kN = 16;
    TypeParam a = make_store<TypeParam>(kN);
    for (VertexId t = 0; t < 12; ++t) {
        a.apply_insert(3, {t, 1.5f}, kOut);
        a.apply_insert(t, {3, 1.5f}, kIn);
    }
    a.exchange_latest_bid(5, 9);
    a.advance_epoch();
    const std::vector<Neighbor> row3 = a.sorted_edges(3, kOut);

    TypeParam b(std::move(a));
    EXPECT_EQ(b.num_vertices(), kN);
    EXPECT_EQ(b.num_edges(), 12u);
    EXPECT_EQ(b.epoch(), 1u);
    EXPECT_EQ(b.latest_bid(5), 9u);
    EXPECT_EQ(b.sorted_edges(3, kOut), row3);
    EXPECT_EQ(b.degree(7, kIn), 1u);
    if constexpr (std::is_same_v<TypeParam, HybridStore>) {
        EXPECT_EQ(b.tier(3, kOut), HybridEdgeSet::kHashed);
    }

    // The moved-from store is empty and reusable, not half-alive.
    EXPECT_EQ(a.num_vertices(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.num_edges(), 0u);
    EXPECT_EQ(a.epoch(), 0u);
    a.ensure_vertices(4);
    EXPECT_EQ(a.latest_bid(3), 0u);
    {
        SpinlockGuard guard(a.lock(0, kOut));
        a.apply_insert(0, {1, 1.0f}, kOut);
    }
    EXPECT_EQ(a.num_edges(), 1u);
    EXPECT_EQ(a.degree(0, kOut), 1u);
}

TYPED_TEST(LiveStoreContract, GrowthIsGeometricAndKeepsEdgesAndBids)
{
    constexpr VertexId kSteps = 4096;
    TypeParam g = make_store<TypeParam>(1);
    std::uint64_t allocs = 0;
    for (VertexId v = 1; v <= kSteps; ++v) {
        const std::uint64_t before = tracked_alloc_count();
        set_alloc_tracking(true);
        g.ensure_vertices(v + 1);
        set_alloc_tracking(false);
        allocs += tracked_alloc_count() - before;
        g.apply_insert(v, {v - 1, static_cast<Weight>(v)}, kOut);
        g.apply_insert(v - 1, {v, static_cast<Weight>(v)}, kIn);
        g.exchange_latest_bid(v, v);
    }
    // O(log n): the vertex table's arrays (rows, change marks, bids and
    // locks, two directions each) reallocate about once per doubling —
    // 91 allocations here.  Exact-size growth of the bids and locks
    // would make at least three per step.
    EXPECT_LE(allocs, 8u * std::bit_width(kSteps));
    ASSERT_EQ(g.num_vertices(), kSteps + 1);
    EXPECT_EQ(g.num_edges(), kSteps);
    for (VertexId v = 1; v <= kSteps; ++v) {
        ASSERT_EQ(g.latest_bid(v), v);
        const std::vector<Neighbor> out{{v - 1, static_cast<Weight>(v)}};
        ASSERT_EQ(g.sorted_edges(v, kOut), out) << "vertex " << v;
        const std::vector<Neighbor> in{{v, static_cast<Weight>(v)}};
        ASSERT_EQ(g.sorted_edges(v - 1, kIn), in) << "vertex " << v - 1;
    }
}

TYPED_TEST(LiveStoreContract, ExchangeLatestBidReturnsPrevious)
{
    TypeParam g = make_store<TypeParam>(2);
    EXPECT_EQ(g.exchange_latest_bid(0, 5), 0u);
    EXPECT_EQ(g.exchange_latest_bid(0, 6), 5u);
    EXPECT_EQ(g.latest_bid(0), 6u);
    EXPECT_EQ(g.latest_bid(1), 0u);
}

TYPED_TEST(LiveStoreContract, ChangeMarkBoundsEveryWrite)
{
    constexpr std::size_t kN = 300;
    TypeParam g = make_store<TypeParam>(kN);
    const auto check = [&g](VertexId v, Direction dir, auto&& mutate) {
        const std::vector<Neighbor> before = row_of(g, v, dir);
        mutate();
        EXPECT_LE(g.take_change_mark(v, dir),
                  first_change(before, row_of(g, v, dir)))
            << "vertex " << v;
        EXPECT_EQ(g.take_change_mark(v, dir), kRowUnchanged);
    };
    for (const StreamEdge& e : testutil::mixed_stream(4000, 11)) {
        if (e.is_delete) {
            check(e.src, kOut, [&] { g.apply_remove(e.src, e.dst, kOut); });
            check(e.dst, kIn, [&] { g.apply_remove(e.dst, e.src, kIn); });
        } else {
            check(e.src, kOut,
                  [&] { g.apply_insert(e.src, {e.dst, e.weight}, kOut); });
            check(e.dst, kIn,
                  [&] { g.apply_insert(e.dst, {e.src, e.weight}, kIn); });
        }
    }
    if constexpr (requires(FlatWeightTable& t) {
                      g.apply_coalesced(0, kOut, t);
                  }) {
        FlatWeightTable table;
        for (VertexId v = 0; v < kN; v += 7) {
            table.reset(12);
            for (VertexId t = 0; t < 12; ++t) {
                table.add((v * 31 + t * 13) % kN, 0.25f);
            }
            check(v, kOut, [&] { g.apply_coalesced(v, kOut, table); });
        }
    }
}

using GraphDeathTest = ::testing::Test;

TEST(GraphDeathTest, OutOfRangeVertexAbortsInDebug)
{
#ifndef NDEBUG
    AdjacencyList g(2);
    EXPECT_DEATH(g.apply_insert(7, {0, 1.0f}, Direction::kOut), "check");
#else
    GTEST_SKIP() << "IGS_DCHECK compiled out in NDEBUG";
#endif
}

} // namespace
} // namespace igs::graph
