/**
 * @file
 * Tests for the incremental memoized analytics tier (DESIGN.md §14):
 * DirtySetView semantics, the full-vs-delta input policy, and the
 * randomized equivalence harness — N seeded mixed insert/delete streams
 * driven through the incremental kernels and their from-scratch
 * references on all three storage backends, with SSSP/BFS asserted
 * *exactly* equal and PageRank equal within tolerance every epoch.
 * The adversarial deletion-stress stream (delete bursts,
 * delete-then-reinsert-same-edge) runs through the same harness.
 *
 * Seeds are overridable via $IGS_TEST_SEED and printed on failure
 * (testutil::seed_trace).
 */
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/incremental/analytics.h"
#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "gen/deletion_stress.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "graph/dirty_set_view.h"
#include "graph/hybrid_store.h"
#include "graph/snapshot_view.h"
#include "stream/batch.h"
#include "stream/compute_policy.h"
#include "stream/pending.h"

#include "test_support.h"

namespace igs {
namespace {

using analytics::incremental::Bfs;
using analytics::incremental::IncrementalAnalytics;
using analytics::incremental::IncrementalConfig;
using analytics::incremental::Sssp;
using stream::IncrementalPolicy;
using testutil::harness_seeds;
using testutil::seed_trace;
using testutil::tight_tuning;

// The dirty-set view is itself a read path over any read path — the
// snapshot included — and DegreeAwareHash now satisfies the concept
// (its edges() view is what made the incremental tier backend-complete).
static_assert(graph::GraphReadPath<graph::DegreeAwareHash>);
static_assert(graph::GraphReadPath<graph::DirtySetView<graph::AdjacencyList>>);
static_assert(
    graph::GraphReadPath<graph::DirtySetView<graph::DegreeAwareHash>>);
static_assert(graph::GraphReadPath<graph::DirtySetView<graph::HybridStore>>);
static_assert(graph::GraphReadPath<graph::DirtySetView<graph::SnapshotView>>);

// ------------------------------------------------------- DirtySetView

TEST(DirtySetView, WrapsReadPathAndAnswersMembership)
{
    graph::AdjacencyList g(8);
    g.apply_insert(1, {3, 2.0f}, Direction::kOut);
    g.apply_insert(3, {1, 2.0f}, Direction::kIn);
    const std::vector<VertexId> dirty{1, 3};
    const graph::DirtySetView<graph::AdjacencyList> view(g, dirty);
    EXPECT_EQ(view.num_vertices(), 8u);
    EXPECT_EQ(view.degree(1, Direction::kOut), 1u);
    EXPECT_EQ(view.edges(1, Direction::kOut).front().id, 3u);
    EXPECT_EQ(view.dirty().size(), 2u);
    EXPECT_TRUE(view.is_dirty(1));
    EXPECT_TRUE(view.is_dirty(3));
    EXPECT_FALSE(view.is_dirty(0));
    EXPECT_FALSE(view.is_dirty(7));
    EXPECT_DOUBLE_EQ(view.dirty_fraction(), 2.0 / 8.0);
    EXPECT_EQ(&view.base(), &g);
}

TEST(DirtySetView, EmptyDirtySetAndEmptyGraph)
{
    graph::AdjacencyList g(4);
    const graph::DirtySetView<graph::AdjacencyList> view(g, {});
    EXPECT_EQ(view.dirty().size(), 0u);
    EXPECT_DOUBLE_EQ(view.dirty_fraction(), 0.0);
    graph::AdjacencyList empty(0);
    EXPECT_DOUBLE_EQ(
        graph::DirtySetView<graph::AdjacencyList>(empty, {}).dirty_fraction(),
        0.0);
}

// ------------------------------------------------------- input policy

TEST(IncrementalPolicy, MeasureComputesRatios)
{
    stream::PendingWork w;
    w.affected = {1, 2, 3};
    w.inserted.resize(3);
    w.deleted.resize(1);
    const auto s = stream::EpochInputStats::measure(w, 30);
    EXPECT_EQ(s.dirty_vertices, 3u);
    EXPECT_EQ(s.inserted, 3u);
    EXPECT_EQ(s.deleted, 1u);
    EXPECT_DOUBLE_EQ(s.dirty_fraction, 0.1);
    EXPECT_DOUBLE_EQ(s.delete_ratio, 0.25);
    // Degenerate inputs don't divide by zero.
    const auto e = stream::EpochInputStats::measure({}, 0);
    EXPECT_DOUBLE_EQ(e.dirty_fraction, 0.0);
    EXPECT_DOUBLE_EQ(e.delete_ratio, 0.0);
}

TEST(IncrementalPolicy, AutoKeysOnDirtyFractionAndDeleteRatio)
{
    stream::IncrementalPolicyParams p;
    p.policy = IncrementalPolicy::kAuto;
    stream::EpochInputStats s;
    s.dirty_fraction = 0.1;
    s.delete_ratio = 0.1;
    EXPECT_TRUE(stream::use_delta(p, s));
    s.dirty_fraction = p.max_dirty_fraction; // boundary is inclusive
    EXPECT_TRUE(stream::use_delta(p, s));
    s.dirty_fraction = p.max_dirty_fraction + 0.01;
    EXPECT_FALSE(stream::use_delta(p, s));
    s.dirty_fraction = 0.1;
    s.delete_ratio = p.max_delete_ratio + 0.01;
    EXPECT_FALSE(stream::use_delta(p, s));
    // The oblivious policies ignore the statistics entirely.
    p.policy = IncrementalPolicy::kFullRerun;
    EXPECT_FALSE(stream::use_delta(p, s));
    p.policy = IncrementalPolicy::kDeltaPropagate;
    EXPECT_TRUE(stream::use_delta(p, s));
    EXPECT_STREQ(to_string(IncrementalPolicy::kAuto), "auto");
}

// ------------------------------------------- randomized equivalence

/** Engine update semantics: a batch's insertions land before its
 *  deletions, symmetrically in both directions. */
template <typename Graph>
void
apply_batch(Graph& g, const std::vector<StreamEdge>& ops)
{
    for (const StreamEdge& e : ops) {
        if (!e.is_delete) {
            g.apply_insert(e.src, {e.dst, e.weight}, Direction::kOut);
            g.apply_insert(e.dst, {e.src, e.weight}, Direction::kIn);
        }
    }
    for (const StreamEdge& e : ops) {
        if (e.is_delete) {
            g.apply_remove(e.src, e.dst, Direction::kOut);
            g.apply_remove(e.dst, e.src, Direction::kIn);
        }
    }
}

/** Tolerances tight enough that residual truncation stays far below the
 *  1e-8 comparison threshold: the delta kernel's per-vertex residual is
 *  amplified at most n/(1-damping)-fold, 1e-12 * 300 / 0.15 ≈ 2e-9. */
analytics::PageRankParams
tight_pagerank()
{
    analytics::PageRankParams p;
    p.tolerance = 1e-12;
    p.max_iterations = 250;
    return p;
}

IncrementalConfig
harness_config(IncrementalPolicy policy)
{
    IncrementalConfig cfg;
    cfg.policy.policy = policy;
    cfg.pagerank = tight_pagerank();
    return cfg;
}

/** Weight of the edge (u, v) in `g`, or nullopt when it is absent. */
template <typename Graph>
std::optional<Weight>
edge_weight(const Graph& g, VertexId u, VertexId v)
{
    for (const Neighbor& e : g.edges(u, Direction::kOut)) {
        if (e.id == v) {
            return e.weight;
        }
    }
    return std::nullopt;
}

/**
 * The kernel's parent array must be a shortest-path tree of `g`: every
 * reached vertex but the source hangs off an existing edge
 * (parent[v], v) whose relaxation reproduces its value exactly; the
 * source and unreached vertices have no parent.
 */
template <typename Graph, typename D, typename Step>
void
expect_parent_tree(const Graph& g, VertexId source,
                   const std::vector<D>& value,
                   const std::vector<VertexId>& parent, D unreached,
                   Step step)
{
    ASSERT_EQ(parent.size(), value.size());
    for (VertexId v = 0; v < value.size(); ++v) {
        if (v == source || value[v] == unreached) {
            EXPECT_EQ(parent[v], kInvalidVertex) << "vertex " << v;
            continue;
        }
        const VertexId p = parent[v];
        ASSERT_LT(p, value.size()) << "vertex " << v;
        const std::optional<Weight> w = edge_weight(g, p, v);
        ASSERT_TRUE(w.has_value()) << "tree edge " << p << "->" << v;
        EXPECT_EQ(value[v], step(value[p], *w)) << "vertex " << v;
    }
}

template <typename Graph>
void
expect_parent_tree(const Graph& g, const Sssp& sssp)
{
    expect_parent_tree(g, sssp.source(), sssp.distances(), sssp.parents(),
                       kInfiniteDistance,
                       [](Weight d, Weight w) { return d + w; });
}

template <typename Graph>
void
expect_parent_tree(const Graph& g, const Bfs& bfs)
{
    expect_parent_tree(g, bfs.source(), bfs.hops(), bfs.parents(),
                       Bfs::kUnreachable,
                       [](std::uint32_t h, Weight) { return h + 1; });
}

/**
 * Drive `epochs` of operations through one shared graph, comparing an
 * always-delta bundle against an always-full bundle every epoch: BFS
 * and SSSP must match the from-scratch kernels exactly (least-fixpoint
 * argument, analytics/incremental/state.h) and keep a valid parent
 * tree, PageRank must match within tolerance.
 */
template <typename Graph>
void
expect_incremental_matches_full(
    Graph& g, const std::vector<std::vector<StreamEdge>>& epochs)
{
    IncrementalAnalytics inc(
        harness_config(IncrementalPolicy::kDeltaPropagate));
    IncrementalAnalytics ref(harness_config(IncrementalPolicy::kFullRerun));
    stream::PendingAccumulator acc;
    EpochId epoch = 0;
    for (const auto& ops : epochs) {
        apply_batch(g, ops);
        acc.note_batch(stream::EdgeBatch(epoch + 1, ops));
        const auto work = acc.hand_off(++epoch);
        (void)inc.on_epoch(g, work);
        (void)ref.on_epoch(g, work);
        SCOPED_TRACE("epoch=" + std::to_string(epoch));
        EXPECT_EQ(inc.sssp().distances(), ref.sssp().distances());
        EXPECT_EQ(inc.bfs().hops(), ref.bfs().hops());
        // Anchor the memoized reference itself against the stateless
        // kernels (a bug shared by full_rerun and delta would otherwise
        // cancel out).
        EXPECT_EQ(ref.sssp().distances(), analytics::static_sssp(g, 0));
        EXPECT_EQ(ref.bfs().hops(), analytics::bfs_distances(g, 0));
        expect_parent_tree(g, inc.sssp());
        expect_parent_tree(g, inc.bfs());
        expect_parent_tree(g, ref.sssp());
        expect_parent_tree(g, ref.bfs());
        const auto& ra = inc.pagerank().ranks();
        const auto& rb = ref.pagerank().ranks();
        ASSERT_EQ(ra.size(), rb.size());
        for (std::size_t v = 0; v < ra.size(); ++v) {
            EXPECT_NEAR(ra[v], rb[v], 1e-8) << "vertex " << v;
        }
    }
    // The delta bundle must actually have exercised the delta path
    // (first epoch is always full — the memo state starts cold).
    EXPECT_EQ(ref.delta_epochs(), 0u);
    EXPECT_GT(inc.delta_epochs(), 0u);
    EXPECT_LT(inc.delta_epochs(), inc.epochs());
}

std::vector<std::vector<StreamEdge>>
mixed_epochs(std::uint64_t seed, std::size_t epochs, std::size_t ops)
{
    gen::StreamModel m;
    m.num_vertices = 300;
    m.num_hubs = 6;
    m.hub_mass_dst = 0.4;
    m.delete_fraction = 0.3;
    m.weighted = true;
    m.seed = seed;
    gen::EdgeStreamGenerator generator(m);
    std::vector<std::vector<StreamEdge>> out;
    out.reserve(epochs);
    for (std::size_t i = 0; i < epochs; ++i) {
        out.push_back(generator.take(ops));
    }
    return out;
}

TEST(IncrementalEquivalence, AdjacencyListRandomizedStreams)
{
    for (const std::uint64_t seed : harness_seeds({101, 102, 103})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::AdjacencyList g(300);
        const auto epochs = mixed_epochs(seed, 8, 250);
        expect_incremental_matches_full(g, epochs);
    }
}

TEST(IncrementalEquivalence, DegreeAwareHashRandomizedStreams)
{
    for (const std::uint64_t seed : harness_seeds({111, 112, 113})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::DegreeAwareHash g(300, tight_tuning());
        const auto epochs = mixed_epochs(seed, 8, 250);
        expect_incremental_matches_full(g, epochs);
    }
}

TEST(IncrementalEquivalence, HybridStoreRandomizedStreams)
{
    for (const std::uint64_t seed : harness_seeds({121, 122, 123})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::HybridStore g(300, tight_tuning());
        const auto epochs = mixed_epochs(seed, 8, 250);
        expect_incremental_matches_full(g, epochs);
    }
}

// --------------------------------------------- deletion-stress streams

std::vector<std::vector<StreamEdge>>
stress_epochs(std::uint64_t seed, std::size_t epochs, std::size_t ops)
{
    gen::DeletionStressModel m;
    m.num_vertices = 256;
    m.build_edges = 1024;
    m.burst = ops; // burst == batch: whole epochs of pure deletion
    m.seed = seed;
    gen::DeletionStressGenerator generator(m);
    std::vector<std::vector<StreamEdge>> out;
    out.reserve(epochs);
    for (std::size_t i = 0; i < epochs; ++i) {
        out.push_back(generator.take(ops));
    }
    return out;
}

TEST(DeletionStressGenerator, PhasesProduceDeleteBurstsAndReinserts)
{
    const std::size_t ops = 128;
    const auto epochs = stress_epochs(7, 14, ops);
    // Epochs 0..7 build (1024/128); then delete and reinsert alternate.
    std::size_t pure_delete_epochs = 0;
    std::size_t reinserted = 0;
    std::vector<StreamEdge> deleted;
    for (const auto& batch : epochs) {
        std::size_t deletes = 0;
        for (const StreamEdge& e : batch) {
            if (e.is_delete) {
                ++deletes;
                deleted.push_back(e);
            } else {
                for (const StreamEdge& d : deleted) {
                    if (d.src == e.src && d.dst == e.dst &&
                        d.weight == e.weight) {
                        ++reinserted;
                        break;
                    }
                }
            }
            // Dyadic weights: scaling by 64 must give exact integers.
            const float scaled = e.weight * 64.0f;
            EXPECT_EQ(scaled, std::floor(scaled));
            EXPECT_GE(e.weight, 0.5f);
            EXPECT_LT(e.weight, 1.5f);
        }
        if (deletes == batch.size()) {
            ++pure_delete_epochs;
        }
    }
    // The adversarial shape actually materialized: whole-batch delete
    // bursts and same-edge reinsertions.
    EXPECT_GE(pure_delete_epochs, 3u);
    EXPECT_GT(reinserted, 0u);
}

TEST(IncrementalEquivalence, DeletionStressAdjacencyList)
{
    for (const std::uint64_t seed : harness_seeds({131, 132})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::AdjacencyList g(256);
        expect_incremental_matches_full(g, stress_epochs(seed, 16, 128));
    }
}

TEST(IncrementalEquivalence, DeletionStressHybridStore)
{
    for (const std::uint64_t seed : harness_seeds({141, 142})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::HybridStore g(256, tight_tuning());
        expect_incremental_matches_full(g, stress_epochs(seed, 16, 128));
    }
}

// ------------------------------------------------ parent-tree trimming

/** Hand `ops` (already applied to `g`) to `kernel` as one delta round. */
template <typename Kernel>
analytics::ComputeStats
delta_round(Kernel& kernel, const graph::AdjacencyList& g,
            const std::vector<StreamEdge>& ops)
{
    stream::PendingAccumulator acc;
    acc.note_batch(stream::EdgeBatch(1, ops));
    const auto work = acc.hand_off(1);
    return kernel.delta_update(
        graph::DirtySetView<graph::AdjacencyList>(g, work.affected),
        work.inserted, work.deleted);
}

/** 0 -> 1 -> 2 carries 2 in both trees; 0 -> 3 -> 2 is longer by weight
 *  and relaxed later by hops, so (3, 2) is off-tree.  5 -> 6 is
 *  unreachable from the source. */
graph::AdjacencyList
off_tree_graph()
{
    graph::AdjacencyList g(7);
    apply_batch(g, {{0, 1, 1.0f, false},
                    {1, 2, 1.0f, false},
                    {0, 3, 1.0f, false},
                    {3, 2, 5.0f, false},
                    {5, 6, 1.0f, false}});
    return g;
}

TEST(IncrementalTrim, OffTreeDeletionDoesNoWork)
{
    graph::AdjacencyList g = off_tree_graph();
    Sssp sssp(0);
    Bfs bfs(0);
    sssp.full_rerun(g);
    bfs.full_rerun(g);
    ASSERT_EQ(sssp.parents()[2], 1u);
    ASSERT_EQ(bfs.parents()[2], 1u);

    const std::vector<StreamEdge> cut{{3, 2, 5.0f, true}};
    apply_batch(g, cut);
    for (const auto& work : {delta_round(sssp, g, cut),
                             delta_round(bfs, g, cut)}) {
        EXPECT_EQ(work.activations, 0u);
        EXPECT_EQ(work.traversals, 0u);
    }
    EXPECT_EQ(sssp.distances(), analytics::static_sssp(g, 0));
    EXPECT_EQ(bfs.hops(), analytics::bfs_distances(g, 0));
}

TEST(IncrementalTrim, OffTreeDuplicateInsertTraversesNothingExtra)
{
    graph::AdjacencyList g = off_tree_graph();
    Sssp sssp(0);
    sssp.full_rerun(g);

    // Unreached source: nothing to relax, so no work at all.
    const std::vector<StreamEdge> far{{5, 6, 0.5f, false}};
    apply_batch(g, far);
    const auto far_work = delta_round(sssp, g, far);
    EXPECT_EQ(far_work.activations, 0u);
    EXPECT_EQ(far_work.traversals, 0u);

    // Reached source: one relaxation of its row, no trim.
    const std::vector<StreamEdge> near{{3, 2, 0.5f, false}};
    apply_batch(g, near);
    const auto near_work = delta_round(sssp, g, near);
    EXPECT_EQ(near_work.activations, 1u);
    EXPECT_EQ(near_work.traversals, g.degree(3, Direction::kOut));
    EXPECT_EQ(sssp.distances(), analytics::static_sssp(g, 0));
    expect_parent_tree(g, sssp);
}

TEST(IncrementalTrim, TreeEdgeDuplicateInsertRaisesDistanceExactly)
{
    graph::AdjacencyList g(5);
    apply_batch(g, {{0, 1, 1.0f, false},
                    {1, 2, 1.0f, false},
                    {0, 2, 3.0f, false},
                    {2, 4, 1.0f, false}});
    Sssp sssp(0);
    sssp.full_rerun(g);
    ASSERT_EQ(sssp.parents()[2], 1u);
    ASSERT_EQ(sssp.distances()[2], 2.0f);

    // Accumulation makes the tree edge (1, 2) weigh 2.5: 2 now routes
    // through the direct edge, and 4 follows it.
    const std::vector<StreamEdge> dup{{1, 2, 1.5f, false}};
    apply_batch(g, dup);
    delta_round(sssp, g, dup);
    EXPECT_EQ(sssp.distances(), analytics::static_sssp(g, 0));
    EXPECT_EQ(sssp.distances()[2], 3.0f);
    EXPECT_EQ(sssp.distances()[4], 4.0f);
    EXPECT_EQ(sssp.parents()[2], 0u);
    expect_parent_tree(g, sssp);
}

TEST(IncrementalTrim, DeletingParentEdgeWithEqualAlternativeStaysExact)
{
    // Two equal-length routes into 3, via 1 and via 2; the tree records
    // one of them, and 4 hangs below 3.
    graph::AdjacencyList g(5);
    apply_batch(g, {{0, 1, 1.0f, false},
                    {0, 2, 1.0f, false},
                    {1, 3, 1.0f, false},
                    {2, 3, 1.0f, false},
                    {3, 4, 1.0f, false}});
    Sssp sssp(0);
    Bfs bfs(0);
    sssp.full_rerun(g);
    bfs.full_rerun(g);
    const VertexId via = sssp.parents()[3];
    ASSERT_TRUE(via == 1 || via == 2);
    ASSERT_EQ(bfs.parents()[3], via);

    const std::vector<StreamEdge> cut{{via, 3, 1.0f, true}};
    apply_batch(g, cut);
    delta_round(sssp, g, cut);
    delta_round(bfs, g, cut);
    EXPECT_EQ(sssp.distances(), analytics::static_sssp(g, 0));
    EXPECT_EQ(bfs.hops(), analytics::bfs_distances(g, 0));
    EXPECT_EQ(sssp.distances()[4], 3.0f);
    EXPECT_EQ(bfs.hops()[4], 3u);
    EXPECT_EQ(sssp.parents()[3], 3 - via);
    EXPECT_EQ(bfs.parents()[3], 3 - via);
    expect_parent_tree(g, sssp);
    expect_parent_tree(g, bfs);
}

// ------------------------------------------------- policy integration

TEST(IncrementalAnalyticsBundle, FirstEpochIsAlwaysFull)
{
    graph::AdjacencyList g(64);
    IncrementalAnalytics a(
        harness_config(IncrementalPolicy::kDeltaPropagate));
    std::vector<StreamEdge> ops{{1, 2, 1.0f, false}};
    apply_batch(g, ops);
    stream::PendingAccumulator acc;
    acc.note_batch(stream::EdgeBatch(1, ops));
    const auto d = a.on_epoch(g, acc.hand_off(1));
    EXPECT_FALSE(d.delta); // cold state: no baseline to correct
    EXPECT_EQ(a.epochs(), 1u);
    EXPECT_EQ(a.delta_epochs(), 0u);
    EXPECT_TRUE(a.pagerank().warm());
}

TEST(IncrementalAnalyticsBundle, AutoChoosesPerEpochFromBatchStats)
{
    graph::AdjacencyList g(2000);
    IncrementalAnalytics a(harness_config(IncrementalPolicy::kAuto));
    stream::PendingAccumulator acc;
    EpochId epoch = 0;
    const auto run = [&](const std::vector<StreamEdge>& ops) {
        apply_batch(g, ops);
        acc.note_batch(stream::EdgeBatch(epoch + 1, ops));
        return a.on_epoch(g, acc.hand_off(++epoch));
    };

    // Epoch 1: a build batch — full regardless (cold).
    std::vector<StreamEdge> build;
    for (VertexId v = 0; v < 600; ++v) {
        build.push_back({v, v + 1, 1.0f, false});
    }
    EXPECT_FALSE(run(build).delta);

    // Epoch 2: a few inserts — tiny dirty fraction, no deletes: delta.
    const auto d2 = run({{5, 700, 1.0f, false}, {6, 701, 1.0f, false}});
    EXPECT_TRUE(d2.delta);
    EXPECT_LE(d2.stats.dirty_fraction, 0.25);

    // Epoch 3: delete-heavy batch — ratio above threshold: full rerun.
    const auto d3 = run({{5, 700, 1.0f, true},
                         {6, 701, 1.0f, true},
                         {0, 1, 1.0f, true},
                         {7, 702, 1.0f, false}});
    EXPECT_DOUBLE_EQ(d3.stats.delete_ratio, 0.75);
    EXPECT_FALSE(d3.delta);

    // Epoch 4: quiet again: back to delta.
    EXPECT_TRUE(run({{8, 703, 1.0f, false}}).delta);
    EXPECT_EQ(a.epochs(), 4u);
    EXPECT_EQ(a.delta_epochs(), 2u);
}

TEST(IncrementalPageRank, DeltaFallsBackToFullWhenVertexSpaceChanges)
{
    analytics::incremental::PageRank pr(tight_pagerank());
    graph::AdjacencyList small(4);
    small.apply_insert(0, {1, 1.0f}, Direction::kOut);
    small.apply_insert(1, {0, 1.0f}, Direction::kIn);
    pr.full_rerun(small);
    ASSERT_EQ(pr.ranks().size(), 4u);

    // A bigger graph shifts the (1-d)/|V| base term for every vertex:
    // delta_propagate must detect the size change and rerun fully.
    graph::AdjacencyList big(6);
    big.apply_insert(0, {1, 1.0f}, Direction::kOut);
    big.apply_insert(1, {0, 1.0f}, Direction::kIn);
    const std::vector<VertexId> dirty{0, 1};
    pr.delta_propagate(graph::DirtySetView<graph::AdjacencyList>(big, dirty));
    analytics::incremental::PageRank fresh(tight_pagerank());
    fresh.full_rerun(big);
    EXPECT_EQ(pr.ranks(), fresh.ranks());
}

TEST(IncrementalAnalyticsBundle, DeltaDoesLessTraversalWorkWhenQuiet)
{
    // A small dirty set on a warm state must touch far fewer edges than
    // a full rerun — the point of the whole tier.  (The bench pins the
    // magnitude; this guards the direction.)
    graph::AdjacencyList g(500);
    const auto epochs = mixed_epochs(201, 2, 1500);
    // Default pagerank tolerance (1e-4): this test compares *work*, not
    // rank values, and at equivalence-harness tolerances (1e-12) the
    // residual wave legitimately spreads graph-wide.
    IncrementalConfig delta_cfg;
    delta_cfg.policy.policy = IncrementalPolicy::kDeltaPropagate;
    IncrementalConfig full_cfg;
    full_cfg.policy.policy = IncrementalPolicy::kFullRerun;
    IncrementalAnalytics inc(delta_cfg);
    IncrementalAnalytics ref(full_cfg);
    stream::PendingAccumulator acc;
    EpochId epoch = 0;
    for (const auto& ops : epochs) {
        apply_batch(g, ops);
        acc.note_batch(stream::EdgeBatch(epoch + 1, ops));
        const auto work = acc.hand_off(++epoch);
        (void)inc.on_epoch(g, work);
        (void)ref.on_epoch(g, work);
    }
    // Now a tiny third epoch.
    std::vector<StreamEdge> quiet{{3, 4, 1.0f, false}};
    apply_batch(g, quiet);
    acc.note_batch(stream::EdgeBatch(epoch + 1, quiet));
    const auto work = acc.hand_off(++epoch);
    const auto di = inc.on_epoch(g, work);
    const auto dr = ref.on_epoch(g, work);
    EXPECT_TRUE(di.delta);
    EXPECT_FALSE(dr.delta);
    EXPECT_LT(di.work.traversals, dr.work.traversals / 4);
    EXPECT_GT(di.work.seeds, 0u);
    EXPECT_EQ(dr.work.seeds, 0u);
    // Rounds are attributed identically: one per kernel per epoch.
    EXPECT_EQ(di.work.rounds, dr.work.rounds);
    EXPECT_EQ(inc.meter().last_epoch(), epoch);
}

} // namespace
} // namespace igs
