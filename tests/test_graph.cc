/**
 * @file
 * Tests for the dynamic graph structures: AdjacencyList and
 * DegreeAwareHash — including randomized cross-structure equivalence
 * properties.
 */
#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"

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

TEST(AdjacencyList, EnsureVerticesPreservesEdges)
{
    AdjacencyList g(2);
    g.apply_insert(0, {1, 1.0f}, Direction::kOut);
    g.exchange_latest_bid(1, 7);
    g.ensure_vertices(100);
    EXPECT_EQ(g.num_vertices(), 100u);
    EXPECT_EQ(g.degree(0, Direction::kOut), 1u);
    EXPECT_EQ(g.latest_bid(1), 7u);
}

TEST(AdjacencyList, LatestBidExchangeReturnsPrevious)
{
    AdjacencyList g(2);
    EXPECT_EQ(g.exchange_latest_bid(0, 5), 0u);
    EXPECT_EQ(g.exchange_latest_bid(0, 6), 5u);
    EXPECT_EQ(g.latest_bid(0), 6u);
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

// --------------------------------------------------- degree-aware hash
TEST(DegreeAwareHash, MigratesToHashAtThreshold)
{
    DegreeAwareHash g(2);
    for (VertexId t = 0; t < DahEdgeSet::kHashThreshold - 1; ++t) {
        g.apply_insert(0, {t + 100, 1.0f}, Direction::kOut);
    }
    EXPECT_FALSE(g.edge_set(0, Direction::kOut).hashed());
    g.apply_insert(0, {999, 1.0f}, Direction::kOut);
    EXPECT_TRUE(g.edge_set(0, Direction::kOut).hashed());
    EXPECT_EQ(g.degree(0, Direction::kOut), DahEdgeSet::kHashThreshold);
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

} // namespace
} // namespace igs::graph

// Additional coverage appended after the first green run: growth
// invariants and argument-validation death tests.
namespace igs::graph {
namespace {

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
