/**
 * @file
 * Tests for the analytics layer: static PageRank, SSSP and BFS, the
 * incremental PageRank/SSSP kernels driven the way the benches drive
 * them (settled on the empty graph, then one delta round per batch), and
 * the compute meter.
 */
#include <cmath>
#include <queue>

#include <gtest/gtest.h>

#include "analytics/compute_meter.h"
#include "analytics/incremental/pagerank.h"
#include "analytics/incremental/sssp.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "common/random.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "stream/batch.h"
#include "stream/pending.h"
#include "stream/update_context.h"
#include "stream/updaters.h"

namespace igs::analytics {
namespace {

/** Build a small graph from explicit edges. */
graph::AdjacencyList
build(std::size_t n, const std::vector<std::pair<VertexId, VertexId>>& edges,
      const std::vector<Weight>& weights = {})
{
    graph::AdjacencyList g(n);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const Weight w = weights.empty() ? 1.0f : weights[i];
        g.apply_insert(edges[i].first, {edges[i].second, w}, Direction::kOut);
        g.apply_insert(edges[i].second, {edges[i].first, w}, Direction::kIn);
    }
    return g;
}

// ------------------------------------------------------------- pagerank
TEST(StaticPageRank, SumsToOne)
{
    const auto g = build(5, {{0, 1}, {1, 2}, {2, 0}, {3, 2}, {4, 0}});
    const auto ranks = static_pagerank(g);
    double sum = 0.0;
    for (double r : ranks) {
        sum += r;
    }
    // Dangling mass leaks slightly in the GAP formulation; generous bound.
    EXPECT_NEAR(sum, 1.0, 0.25);
}

TEST(StaticPageRank, SymmetricCycleIsUniform)
{
    const auto g = build(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    const auto ranks = static_pagerank(g);
    for (double r : ranks) {
        EXPECT_NEAR(r, 0.25, 1e-3);
    }
}

TEST(StaticPageRank, HubReceivesHigherRank)
{
    // Everyone points at vertex 0.
    const auto g = build(5, {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
    const auto ranks = static_pagerank(g);
    for (VertexId v = 1; v < 5; ++v) {
        EXPECT_GT(ranks[0], ranks[v]);
    }
}

TEST(StaticPageRank, EmptyGraph)
{
    graph::AdjacencyList g(0);
    EXPECT_TRUE(static_pagerank(g).empty());
}

TEST(IncrementalPageRank, ConvergesTowardStaticResult)
{
    graph::AdjacencyList g(50);
    incremental::PageRank inc{PageRankParams{0.85, 1e-7, 200}};
    inc.full_rerun(g);
    stream::RealContext ctx;
    stream::PendingAccumulator acc;
    Rng rng(9);
    for (std::uint64_t k = 1; k <= 5; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        for (int i = 0; i < 40; ++i) {
            const auto s = static_cast<VertexId>(rng.below(50));
            auto d = static_cast<VertexId>(rng.below(50));
            if (d == s) {
                d = (d + 1) % 50;
            }
            batch.push_edge({s, d, 1.0f, false});
        }
        stream::apply_batch_baseline(g, batch, ctx);
        acc.note_batch(batch);
        const auto work = acc.hand_off(k);
        inc.delta_propagate(g, work.affected);
    }
    const auto exact = static_pagerank(g, {0.85, 1e-10, 500});
    // Seeding the dirty set's out-neighbours too keeps the memoized ranks
    // at the fixpoint, up to the per-vertex residual tolerance.
    double max_err = 0.0;
    for (std::size_t v = 0; v < 50; ++v) {
        max_err = std::max(max_err, std::abs(exact[v] - inc.ranks()[v]));
    }
    EXPECT_LT(max_err, 1e-5);
}

TEST(IncrementalPageRank, CountsWork)
{
    graph::AdjacencyList g(10);
    incremental::PageRank inc;
    inc.full_rerun(g);
    g.apply_insert(0, {1, 1.0f}, Direction::kOut);
    g.apply_insert(1, {0, 1.0f}, Direction::kIn);
    ComputeMeter meter;
    meter.round();
    const std::vector<VertexId> dirty{0, 1};
    const auto stats = inc.delta_propagate(g, dirty, &meter);
    EXPECT_EQ(meter.stats().rounds, 1u);
    EXPECT_GT(stats.activations, 0u);
    EXPECT_EQ(stats.seeds, 2u);
}

// ----------------------------------------------------------------- sssp
TEST(StaticSssp, HopDistancesOnChain)
{
    const auto g = build(4, {{0, 1}, {1, 2}, {2, 3}});
    const auto d = static_sssp(g, 0);
    EXPECT_FLOAT_EQ(d[0], 0.0f);
    EXPECT_FLOAT_EQ(d[1], 1.0f);
    EXPECT_FLOAT_EQ(d[2], 2.0f);
    EXPECT_FLOAT_EQ(d[3], 3.0f);
}

TEST(StaticSssp, PrefersLighterPath)
{
    // 0 -> 1 -> 2 with weights 1+1 beats direct 0 -> 2 with weight 5.
    const auto g =
        build(3, {{0, 1}, {1, 2}, {0, 2}}, {1.0f, 1.0f, 5.0f});
    const auto d = static_sssp(g, 0);
    EXPECT_FLOAT_EQ(d[2], 2.0f);
}

TEST(StaticSssp, UnreachableIsInfinite)
{
    const auto g = build(3, {{0, 1}});
    const auto d = static_sssp(g, 0);
    EXPECT_TRUE(std::isinf(d[2]));
}

/**
 * The strong property: incremental SSSP equals a from-scratch recompute
 * exactly after every batch, including deletions (KickStarter-style
 * trimming).
 */
class IncSsspTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncSsspTest, MatchesStaticAfterEveryBatch)
{
    gen::StreamModel m;
    m.num_vertices = 120;
    m.num_hubs = 6;
    m.hub_mass_dst = 0.2;
    m.delete_fraction = 0.25;
    m.weighted = true;
    m.seed = GetParam();
    gen::EdgeStreamGenerator genr(m);

    graph::AdjacencyList g(120);
    incremental::Sssp inc(0);
    inc.full_rerun(g);
    stream::RealContext ctx;
    stream::PendingAccumulator acc;

    for (std::uint64_t k = 1; k <= 8; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        batch.set_edges(genr.take(150));
        stream::apply_batch_baseline(g, batch, ctx);
        acc.note_batch(batch);
        const auto work = acc.hand_off(k);
        inc.delta_update(g, work.inserted, work.deleted);
        ASSERT_EQ(inc.distances(), static_sssp(g, 0)) << "batch " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncSsspTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ------------------------------------------------------------ traversal
TEST(Bfs, MatchesHandComputedDistances)
{
    const auto g = build(6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
    const auto d = bfs_distances(g, 0);
    EXPECT_EQ(d[0], 0u);
    EXPECT_EQ(d[1], 1u);
    EXPECT_EQ(d[2], 1u);
    EXPECT_EQ(d[3], 2u);
    EXPECT_EQ(d[4], 3u);
    EXPECT_EQ(d[5], ~0u);
}

// ---------------------------------------------------------------- meter
TEST(ComputeMeter, CyclesFollowCounts)
{
    ComputeCostParams p;
    ComputeStats a;
    a.activations = 100;
    a.traversals = 1000;
    a.rounds = 1;
    ComputeStats b = a;
    b.rounds = 2;
    EXPECT_GT(b.cycles(p), a.cycles(p));
    EXPECT_EQ(b.cycles(p) - a.cycles(p), static_cast<Cycles>(p.per_round));
}

TEST(ComputeMeter, Accumulates)
{
    ComputeMeter m;
    m.activate(3);
    m.traverse(7);
    m.round();
    m.iteration();
    EXPECT_EQ(m.stats().activations, 3u);
    EXPECT_EQ(m.stats().traversals, 7u);
    EXPECT_EQ(m.stats().rounds, 1u);
    m.reset();
    EXPECT_EQ(m.stats().activations, 0u);
}

} // namespace
} // namespace igs::analytics
