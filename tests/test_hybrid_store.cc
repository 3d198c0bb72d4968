/**
 * @file
 * Tests for the three-tier hybrid adjacency store (DESIGN.md §12): tier
 * transitions and promotion bookkeeping, hash-tier backshift deletion,
 * randomized equivalence against a reference model, cross-backend
 * equivalence of AdjacencyList / DegreeAwareHash / HybridStore under
 * mixed insert/delete schedules (including across tier-promotion
 * boundaries), analytics equality, and the backend-selectable real-time
 * engine (AnyRealTimeEngine, pipeline mode included).
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "common/flat_table.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "graph/hybrid_store.h"
#include "graph/store_tuning.h"
#include "stream/batch.h"
#include "stream/reorder.h"
#include "stream/updaters.h"

#include "test_support.h"

namespace igs::graph {
namespace {

constexpr Direction kOut = Direction::kOut;
constexpr Direction kIn = Direction::kIn;

using testutil::mixed_stream;
using testutil::tight_tuning;

// ------------------------------------------------------ tier transitions

TEST(HybridStore, InlineTierHoldsSmallDegrees)
{
    HybridStore g(4);
    for (VertexId t = 0; t < HybridEdgeSet::kInlineCapacity; ++t) {
        const auto r = g.apply_insert(0, {t + 10, 1.0f}, kOut);
        EXPECT_FALSE(r.found);
    }
    EXPECT_EQ(g.tier(0, kOut), HybridEdgeSet::kInline);
    EXPECT_EQ(g.degree(0, kOut), HybridEdgeSet::kInlineCapacity);
    // Duplicate stays inline and accumulates.
    const auto r = g.apply_insert(0, {10, 2.5f}, kOut);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(g.tier(0, kOut), HybridEdgeSet::kInline);
    EXPECT_FLOAT_EQ(g.sorted_edges(0, kOut).front().weight, 3.5f);
}

TEST(HybridStore, PromotesToSortedPastInlineCapacity)
{
    HybridStore g(4);
    for (VertexId t = 0; t <= HybridEdgeSet::kInlineCapacity; ++t) {
        g.apply_insert(0, {t + 10, 1.0f}, kOut);
    }
    EXPECT_EQ(g.tier(0, kOut), HybridEdgeSet::kSorted);
    EXPECT_EQ(g.degree(0, kOut), HybridEdgeSet::kInlineCapacity + 1);
    // The sorted tier keeps the span contiguous and the ids ordered.
    const auto view = g.edges(0, kOut);
    EXPECT_TRUE(std::is_sorted(view.begin(), view.end(),
                               [](const Neighbor& a, const Neighbor& b) {
                                   return a.id < b.id;
                               }));
}

TEST(HybridStore, PromotesToHashAtSortedThreshold)
{
    HybridStore g(4, tight_tuning());
    const std::uint32_t thr = g.tuning().hybrid_sorted_threshold;
    // Promotion fires when the degree reaches the threshold.
    for (VertexId t = 0; t + 1 < thr; ++t) {
        g.apply_insert(0, {t + 10, 1.0f}, kOut);
        EXPECT_NE(g.tier(0, kOut), HybridEdgeSet::kHashed);
    }
    g.apply_insert(0, {999, 1.0f}, kOut);
    EXPECT_EQ(g.tier(0, kOut), HybridEdgeSet::kHashed);
    EXPECT_EQ(g.degree(0, kOut), thr);
    // Duplicate check is now through the index; weight still accumulates.
    const auto r = g.apply_insert(0, {999, 0.5f}, kOut);
    EXPECT_TRUE(r.found);
    const auto sorted = g.sorted_edges(0, kOut);
    const auto it = std::find_if(sorted.begin(), sorted.end(),
                                 [](const Neighbor& n) { return n.id == 999; });
    ASSERT_NE(it, sorted.end());
    EXPECT_FLOAT_EQ(it->weight, 1.5f);
}

TEST(HybridStore, DuplicateAccumulatesAcrossBothPromotions)
{
    HybridStore g(2, tight_tuning());
    // id 10 goes in at tier 0 and is re-inserted at every tier.
    g.apply_insert(0, {10, 1.0f}, kOut);
    g.apply_insert(0, {10, 1.0f}, kOut); // inline hit
    for (VertexId t = 0; t < 6; ++t) {
        g.apply_insert(0, {t + 100, 1.0f}, kOut); // -> sorted
    }
    EXPECT_EQ(g.tier(0, kOut), HybridEdgeSet::kSorted);
    g.apply_insert(0, {10, 1.0f}, kOut); // sorted hit
    for (VertexId t = 0; t < 8; ++t) {
        g.apply_insert(0, {t + 200, 1.0f}, kOut); // -> hashed
    }
    EXPECT_EQ(g.tier(0, kOut), HybridEdgeSet::kHashed);
    g.apply_insert(0, {10, 1.0f}, kOut); // hash hit
    const auto sorted = g.sorted_edges(0, kOut);
    ASSERT_EQ(sorted.front().id, 10u);
    EXPECT_FLOAT_EQ(sorted.front().weight, 4.0f);
}

TEST(HybridStore, RemoveWorksAtEveryTierAndNeverDemotes)
{
    HybridStore g(2, tight_tuning());
    // Inline removal.
    g.apply_insert(0, {10, 1.0f}, kOut);
    g.apply_insert(0, {11, 1.0f}, kOut);
    EXPECT_TRUE(g.apply_remove(0, 10, kOut).found);
    EXPECT_EQ(g.degree(0, kOut), 1u);
    EXPECT_EQ(g.num_edges(), 1u);

    // Build up to the hash tier, then shrink below every threshold: the
    // representation must stay hashed and stay correct.
    for (VertexId t = 0; t < 20; ++t) {
        g.apply_insert(1, {t, 1.0f}, kOut);
    }
    EXPECT_EQ(g.tier(1, kOut), HybridEdgeSet::kHashed);
    for (VertexId t = 0; t < 18; ++t) {
        EXPECT_TRUE(g.apply_remove(1, t, kOut).found);
    }
    EXPECT_EQ(g.tier(1, kOut), HybridEdgeSet::kHashed);
    EXPECT_EQ(g.degree(1, kOut), 2u);
    const auto sorted = g.sorted_edges(1, kOut);
    EXPECT_EQ(sorted[0].id, 18u);
    EXPECT_EQ(sorted[1].id, 19u);
    // Deleted keys can come back (index slots were backshifted, not
    // tombstoned).
    EXPECT_FALSE(g.apply_insert(1, {5, 1.0f}, kOut).found);
    EXPECT_EQ(g.degree(1, kOut), 3u);
}

TEST(HybridStore, DeleteOfMissingIsNoOpAtEveryTier)
{
    HybridStore g(3, tight_tuning());
    g.apply_insert(0, {1, 1.0f}, kOut); // inline
    for (VertexId t = 0; t < 6; ++t) {
        g.apply_insert(1, {t, 1.0f}, kOut); // sorted
    }
    for (VertexId t = 0; t < 12; ++t) {
        g.apply_insert(2, {t, 1.0f}, kOut); // hashed
    }
    const EdgeId before = g.num_edges();
    EXPECT_FALSE(g.apply_remove(0, 999, kOut).found);
    EXPECT_FALSE(g.apply_remove(1, 999, kOut).found);
    EXPECT_FALSE(g.apply_remove(2, 999, kOut).found);
    EXPECT_EQ(g.num_edges(), before);
}

TEST(HybridStore, TierCensusCountsOutSets)
{
    HybridStore g(3, tight_tuning());
    g.apply_insert(0, {1, 1.0f}, kOut); // inline
    for (VertexId t = 0; t < 6; ++t) {
        g.apply_insert(1, {t, 1.0f}, kOut); // sorted
    }
    for (VertexId t = 0; t < 12; ++t) {
        g.apply_insert(2, {t, 1.0f}, kOut); // hashed
    }
    const auto census = g.tier_census();
    EXPECT_EQ(census.vertices[0], 1u);
    EXPECT_EQ(census.vertices[1], 1u);
    EXPECT_EQ(census.vertices[2], 1u);
    g.publish_tier_telemetry(); // must not crash; gauge values are exported
}

/** The tier gauges as publish_tier_telemetry() last set them. */
HybridStore::TierCensus
gauge_census()
{
    auto& r = telemetry::Registry::global();
    HybridStore::TierCensus c;
    for (int i = 0; i < 3; ++i) {
        c.vertices[i] = static_cast<std::size_t>(
            r.gauge("core.graph.tier" + std::to_string(i) + "_vertices")
                .value());
    }
    return c;
}

/** Publish `g`'s gauges (from its promotion counts) and compare them
 *  with a scan of every out-row. */
void
expect_gauges_match_scan(const HybridStore& g)
{
    g.publish_tier_telemetry();
    const HybridStore::TierCensus scan = g.tier_census();
    const HybridStore::TierCensus gauges = gauge_census();
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(gauges.vertices[i], scan.vertices[i]) << "tier " << i;
    }
}

/**
 * The tier gauges follow from promotion counts.  After every batch they
 * must equal the scan, through the locked baseline kernel on two workers
 * and the run-owned USC kernel, vertex growth and one move (the
 * moved-from store reads 0 vertices and all-zero gauges).  The
 * test also runs a tuning that hashes at one past the inline capacity,
 * so one insert promotes a row twice (inline -> sorted -> hashed).
 */
void
census_counts_match_scan(std::uint64_t seed, const StoreTuning& tuning)
{
    ThreadPool pool(2);
    stream::UscScratch scratch;
    stream::RealContext ctx(pool, &scratch);
    Rng rng(seed);
    gen::StreamModel m;
    m.num_vertices = 200;
    m.num_hubs = 6;
    m.hub_mass_dst = 0.5;
    m.delete_fraction = 0.2;
    m.weighted = true;
    m.seed = seed;
    gen::EdgeStreamGenerator narrow(m);
    m.num_vertices = 400;
    m.seed = seed + 1;
    gen::EdgeStreamGenerator wide(m);

    HybridStore first(0, tuning);
    std::optional<HybridStore> second;
    HybridStore* live = &first;
    constexpr std::uint64_t kBatches = 24;
    for (std::uint64_t b = 1; b <= kBatches; ++b) {
        SCOPED_TRACE("batch " + std::to_string(b));
        const stream::EdgeBatch batch(
            b, (b <= kBatches / 2 ? narrow : wide).take(300));
        live->ensure_vertices(stream::max_vertex_of(batch.edges()) + 1);
        if (rng.below(2) == 0) {
            stream::apply_batch_baseline(*live, batch, ctx);
        } else {
            stream::apply_batch_usc(
                *live, batch, stream::reorder_batch(batch.edges(), pool),
                ctx);
        }
        if (b == 16) {
            second.emplace(std::move(first));
            live = &*second;
            // NOLINTNEXTLINE(bugprone-use-after-move)
            EXPECT_EQ(first.num_vertices(), 0u);
            expect_gauges_match_scan(first);
        }
        expect_gauges_match_scan(*live);
    }
    EXPECT_GT(live->num_vertices(), 200u);
    const HybridStore::TierCensus scan = live->tier_census();
    EXPECT_GT(scan.vertices[HybridEdgeSet::kHashed], 0u);
    // A row stays sorted unless its promotion goes straight on to hashed.
    if (tuning.hybrid_sorted_threshold > HybridEdgeSet::kInlineCapacity + 1) {
        EXPECT_GT(scan.vertices[HybridEdgeSet::kSorted], 0u);
    }
}

TEST(HybridStore, CensusCountsMatchScan)
{
    StoreTuning double_promotion = tight_tuning();
    double_promotion.hybrid_sorted_threshold =
        HybridEdgeSet::kInlineCapacity + 1;
    for (const std::uint64_t seed : testutil::harness_seeds({171, 172, 173})) {
        SCOPED_TRACE(testutil::seed_trace(seed));
        {
            SCOPED_TRACE("tight tuning");
            census_counts_match_scan(seed, tight_tuning());
        }
        {
            SCOPED_TRACE("double promotion");
            census_counts_match_scan(seed, double_promotion);
        }
    }
}

TEST(HybridStore, ApplyCoalescedMatchesIndividualInserts)
{
    const StoreTuning tuning = tight_tuning();
    HybridStore coalesced(2, tuning);
    HybridStore individual(2, tuning);
    for (VertexId t = 0; t < 10; ++t) {
        coalesced.apply_insert(0, {t, 1.0f}, kOut);
        individual.apply_insert(0, {t, 1.0f}, kOut);
    }
    // Half the table hits existing edges, half appends new ones.
    FlatWeightTable table;
    table.reset(8);
    for (VertexId t = 6; t < 14; ++t) {
        table.add(t, 0.5f);
        individual.apply_insert(0, {t, 0.5f}, kOut);
    }
    const std::size_t appended = coalesced.apply_coalesced(0, kOut, table);
    EXPECT_EQ(appended, 4u);
    EXPECT_EQ(coalesced.num_edges(), individual.num_edges());
    EXPECT_TRUE(coalesced.same_topology(individual));
}

// ------------------------------------------- randomized reference model

/** Randomized insert/remove against a std::map reference (the DAH
 *  property test, re-run across the hybrid tier ladder). */
class HybridRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridRandomTest, MatchesReferenceModel)
{
    Rng rng(GetParam());
    HybridStore g(8, tight_tuning());
    std::map<VertexId, float> reference;
    for (int op = 0; op < 4000; ++op) {
        const auto t = static_cast<VertexId>(rng.below(200));
        if (rng.chance(0.3) && !reference.empty()) {
            const auto victim = static_cast<VertexId>(rng.below(200));
            const auto r = g.apply_remove(0, victim, kOut);
            EXPECT_EQ(r.found, reference.erase(victim) > 0);
        } else {
            const float w = static_cast<float>(rng.uniform(0.5, 1.5));
            const auto r = g.apply_insert(0, {t, w}, kOut);
            EXPECT_EQ(r.found, reference.count(t) > 0);
            reference[t] += w;
        }
    }
    EXPECT_EQ(g.tier(0, kOut), HybridEdgeSet::kHashed);
    const auto sorted = g.sorted_edges(0, kOut);
    ASSERT_EQ(sorted.size(), reference.size());
    std::size_t i = 0;
    for (const auto& [id, w] : reference) {
        EXPECT_EQ(sorted[i].id, id);
        EXPECT_NEAR(sorted[i].weight, w, 1e-3);
        ++i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------- cross-backend equivalence

TEST(CrossBackendEquivalence, IdenticalStateUnderMixedSchedules)
{
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
        const auto edges = mixed_stream(12000, seed);
        const StoreTuning tuning = tight_tuning();
        AdjacencyList as(300);
        DegreeAwareHash dah(300, tuning);
        HybridStore hybrid(300, tuning);
        // Same engine-wide schedule on all three: the batch's insertions
        // first, then its deletions.
        const auto apply_all = [&edges](auto& g) {
            for (const StreamEdge& e : edges) {
                if (!e.is_delete) {
                    g.apply_insert(e.src, {e.dst, e.weight}, kOut);
                    g.apply_insert(e.dst, {e.src, e.weight}, kIn);
                }
            }
            for (const StreamEdge& e : edges) {
                if (e.is_delete) {
                    g.apply_remove(e.src, e.dst, kOut);
                    g.apply_remove(e.dst, e.src, kIn);
                }
            }
        };
        apply_all(as);
        apply_all(dah);
        apply_all(hybrid);

        EXPECT_EQ(hybrid.num_edges(), as.num_edges());
        EXPECT_EQ(dah.num_edges(), as.num_edges());
        EXPECT_TRUE(hybrid.same_topology(as));
        EXPECT_TRUE(hybrid.same_topology(dah));
        // Identical application order -> bitwise-identical weights.
        for (VertexId v = 0; v < 300; ++v) {
            for (Direction dir : {kOut, kIn}) {
                const auto ea = as.sorted_edges(v, dir);
                const auto eh = hybrid.sorted_edges(v, dir);
                ASSERT_EQ(ea.size(), eh.size());
                for (std::size_t i = 0; i < ea.size(); ++i) {
                    ASSERT_EQ(ea[i].id, eh[i].id);
                    ASSERT_EQ(ea[i].weight, eh[i].weight);
                }
            }
        }
        // The stream's hubs must actually have crossed into the hash tier
        // for this test to cover promotions.
        EXPECT_GT(hybrid.tier_census().vertices[2], 0u);
    }
}

TEST(CrossBackendEquivalence, AnalyticsAgreeAcrossBackends)
{
    const auto edges = mixed_stream(8000, 31);
    AdjacencyList as(300);
    HybridStore hybrid(300, tight_tuning());
    for (const StreamEdge& e : edges) {
        if (e.is_delete) {
            continue;
        }
        as.apply_insert(e.src, {e.dst, e.weight}, kOut);
        as.apply_insert(e.dst, {e.src, e.weight}, kIn);
        hybrid.apply_insert(e.src, {e.dst, e.weight}, kOut);
        hybrid.apply_insert(e.dst, {e.src, e.weight}, kIn);
    }
    // Sorted per-vertex rows canonicalize both stores identically.
    ASSERT_EQ(as.num_vertices(), hybrid.num_vertices());
    ASSERT_EQ(as.num_edges(), hybrid.num_edges());
    for (VertexId v = 0; v < as.num_vertices(); ++v) {
        const auto ra = as.sorted_edges(v, kOut);
        const auto rh = hybrid.sorted_edges(v, kOut);
        ASSERT_EQ(ra.size(), rh.size());
        for (std::size_t i = 0; i < ra.size(); ++i) {
            EXPECT_EQ(ra[i].id, rh[i].id);
            EXPECT_EQ(ra[i].weight, rh[i].weight);
        }
    }
    // Full static PageRank over both dynamic reads.  Iteration order of
    // the in-edge sets differs (tier promotion re-sorts edge data), so
    // rank sums associate differently; anything beyond rounding noise is
    // a content divergence.
    const auto pra = analytics::static_pagerank(as);
    const auto prh = analytics::static_pagerank(hybrid);
    ASSERT_EQ(pra.size(), prh.size());
    for (std::size_t v = 0; v < pra.size(); ++v) {
        EXPECT_NEAR(pra[v], prh[v], 1e-9);
    }
}

} // namespace
} // namespace igs::graph

// --------------------------------------------- backend-selectable engine

namespace igs {
namespace {

using testutil::engine_batch;

TEST(AnyRealTimeEngine, HybridBackendMatchesAdjacencyListBackend)
{
    ThreadPool pool(1); // identical task order -> bit-identical weights
    core::EngineConfig cfg;
    cfg.policy = core::UpdatePolicy::kAbrUsc;

    core::AnyRealTimeEngine as_engine(cfg, 500, pool);
    cfg.graph_backend = core::GraphBackend::kHybrid;
    core::AnyRealTimeEngine hy_engine(cfg, 500, pool);
    EXPECT_EQ(as_engine.backend(), core::GraphBackend::kAdjacencyList);
    EXPECT_EQ(hy_engine.backend(), core::GraphBackend::kHybrid);

    for (std::uint64_t k = 1; k <= 6; ++k) {
        const auto ra =
            as_engine.ingest(engine_batch(k, 3000, 50 + k));
        const auto rb =
            hy_engine.ingest(engine_batch(k, 3000, 50 + k));
        EXPECT_EQ(ra.reordered, rb.reordered);
        EXPECT_EQ(ra.used_usc, rb.used_usc);
    }
    const auto& ga =
        as_engine.engine<graph::AdjacencyList>().graph();
    const auto& gh = hy_engine.engine<graph::HybridStore>().graph();
    EXPECT_EQ(ga.num_edges(), gh.num_edges());
    EXPECT_TRUE(gh.same_topology(ga));
    for (VertexId v = 0; v < ga.num_vertices(); ++v) {
        const auto ea = ga.sorted_edges(v, Direction::kOut);
        const auto eh = gh.sorted_edges(v, Direction::kOut);
        ASSERT_EQ(ea.size(), eh.size());
        for (std::size_t i = 0; i < ea.size(); ++i) {
            ASSERT_EQ(ea[i].weight, eh[i].weight);
        }
    }
}

TEST(AnyRealTimeEngine, ConfigTuningReachesHybridBackend)
{
    ThreadPool pool(1);
    core::EngineConfig cfg;
    cfg.graph_backend = core::GraphBackend::kHybrid;
    cfg.store.hybrid_sorted_threshold = 8;
    core::AnyRealTimeEngine engine(cfg, 100, pool);
    const auto& g = engine.engine<graph::HybridStore>().graph();
    EXPECT_EQ(g.tuning().hybrid_sorted_threshold, 8u);
}

TEST(HybridRealTimeEngine, PipelineDepthTwoMatchesDepthOne)
{
    core::EngineConfig cfg1;
    cfg1.policy = core::UpdatePolicy::kAbrUsc;
    cfg1.graph_backend = core::GraphBackend::kHybrid;
    cfg1.oca.enabled = false;
    core::EngineConfig cfg2 = cfg1;
    cfg2.pipeline_depth = 2;

    ThreadPool pool(4);
    core::HybridRealTimeEngine serial(cfg1, 500, pool);
    core::HybridRealTimeEngine piped(cfg2, 500, pool);
    std::atomic<int> serial_rounds{0};
    std::atomic<int> piped_rounds{0};
    serial.set_compute([&](const graph::SnapshotView& s,
                           const core::PendingWork&) {
        (void)s;
        serial_rounds.fetch_add(1);
    });
    piped.set_compute([&](const graph::SnapshotView& s,
                          const core::PendingWork&) {
        (void)s;
        piped_rounds.fetch_add(1);
    });
    for (std::uint64_t k = 1; k <= 5; ++k) {
        (void)serial.ingest(engine_batch(k, 2000, 90 + k));
        (void)piped.ingest(engine_batch(k, 2000, 90 + k));
    }
    serial.flush_pipeline();
    piped.flush_pipeline();
    EXPECT_EQ(serial_rounds.load(), piped_rounds.load());
    EXPECT_GT(piped.pipeline_stats().epochs_published, 0u);
    EXPECT_TRUE(piped.graph().same_topology(serial.graph()));
    // The published snapshot reflects the full hybrid graph.
    const graph::SnapshotView snap = piped.snapshot();
    EXPECT_EQ(snap.num_edges(), piped.graph().num_edges());
}

} // namespace
} // namespace igs
