/**
 * @file
 * Tests for the vertex-id indirection layer and input-aware locality
 * renumbering (DESIGN.md §16): VertexIdMap semantics, planner
 * determinism, the LocalityMonitor's skew gate / warmup / cooldown /
 * re-fire hysteresis, permutation invariance of every store's logical
 * reads under apply_renumber, engine-level trigger behavior
 * (hub-heavy fires, uniform never does, renumber-off is bit-identical),
 * and incremental PageRank/SSSP/BFS state surviving renumbers
 * mid-stream.
 *
 * Every suite name contains "Renumber": the tsan-renumber CI leg runs
 * exactly this file via `ctest -R Renumber`.
 */
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/incremental/analytics.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "graph/hybrid_store.h"
#include "graph/renumber.h"
#include "graph/vertex_id_map.h"
#include "stream/batch.h"
#include "stream/compute_policy.h"
#include "stream/pending.h"

#include "test_support.h"

namespace igs {
namespace {

constexpr Direction kOut = Direction::kOut;
constexpr Direction kIn = Direction::kIn;

using analytics::incremental::IncrementalAnalytics;
using analytics::incremental::IncrementalConfig;
using graph::LocalityMonitor;
using graph::LocalityRenumberer;
using graph::RenumberMode;
using graph::RenumberParams;
using graph::VertexIdMap;
using stream::IncrementalPolicy;
using testutil::harness_seeds;
using testutil::mixed_stream;
using testutil::seed_trace;
using testutil::tight_tuning;

// The engine's renumber hook is gated on this shape; both engine
// backends must satisfy it or the trigger silently becomes a no-op.
// DegreeAwareHash inherits it from the same vertex table.
template <typename G>
concept Renumberable = requires(G& g, std::span<const VertexId> l2p) {
    g.apply_renumber(l2p);
    { g.id_map() } -> std::convertible_to<const VertexIdMap&>;
};
static_assert(Renumberable<graph::AdjacencyList>);
static_assert(Renumberable<graph::HybridStore>);
static_assert(Renumberable<graph::DegreeAwareHash>);

std::vector<VertexId>
random_permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<VertexId> p(n);
    std::iota(p.begin(), p.end(), VertexId{0});
    Rng rng(seed);
    for (std::size_t i = n - 1; i > 0; --i) {
        std::swap(p[i], p[rng.below(i + 1)]);
    }
    return p;
}

// ------------------------------------------------------------ VertexIdMap

TEST(RenumberIdMap, DefaultIsIdentity)
{
    VertexIdMap m;
    EXPECT_FALSE(m.enabled());
    EXPECT_TRUE(m.is_identity());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.to_physical(0), 0u);
    EXPECT_EQ(m.to_physical(12345), 12345u);
    EXPECT_EQ(m.to_logical(77), 77u);
}

TEST(RenumberIdMap, RebindRoundTrip)
{
    VertexIdMap m;
    const auto l2p = random_permutation(64, 9001);
    m.rebind(l2p);
    EXPECT_TRUE(m.enabled());
    EXPECT_EQ(m.size(), 64u);
    for (VertexId l = 0; l < 64; ++l) {
        EXPECT_EQ(m.to_physical(l), l2p[l]);
        EXPECT_EQ(m.to_logical(m.to_physical(l)), l);
    }
}

TEST(RenumberIdMap, GrowthPastTableFallsThroughToIdentity)
{
    VertexIdMap m;
    m.rebind(random_permutation(16, 5));
    // Logical ids past the bound table (vertex growth after a renumber)
    // identity-map to rows the bound permutation cannot occupy.
    EXPECT_EQ(m.to_physical(16), 16u);
    EXPECT_EQ(m.to_physical(1000), 1000u);
    EXPECT_EQ(m.to_logical(16), 16u);
}

TEST(RenumberIdMap, ResetRestoresIdentity)
{
    VertexIdMap m;
    m.rebind(random_permutation(16, 6));
    EXPECT_FALSE(m.is_identity());
    m.reset();
    EXPECT_FALSE(m.enabled());
    EXPECT_TRUE(m.is_identity());
    EXPECT_EQ(m.to_physical(3), 3u);
}

TEST(RenumberIdMap, BoundIdentityIsDetected)
{
    VertexIdMap m;
    std::vector<VertexId> ident(32);
    std::iota(ident.begin(), ident.end(), VertexId{0});
    m.rebind(ident);
    EXPECT_TRUE(m.enabled());
    EXPECT_TRUE(m.is_identity());
}

// ---------------------------------------------------------------- planner

TEST(RenumberPlan, HubSortOrdersByDegreeThenId)
{
    const std::vector<std::uint64_t> degrees{3, 9, 9, 1, 0};
    const auto l2p = LocalityRenumberer::plan(degrees, RenumberMode::kHubSort);
    // Rank order: 1 (deg 9), 2 (deg 9, higher id), 0, 3, 4.
    const std::vector<VertexId> expect{2, 0, 1, 3, 4};
    EXPECT_EQ(l2p, expect);
}

TEST(RenumberPlan, DegreeGroupBucketsHotFirstStableWithin)
{
    // log2 buckets: {8, 9} -> bucket 4; {4, 7} -> bucket 3; {1} -> 1.
    const std::vector<std::uint64_t> degrees{4, 8, 1, 9, 7};
    const auto l2p =
        LocalityRenumberer::plan(degrees, RenumberMode::kDegreeGroup);
    // Rank order: 1, 3 (bucket 4, id-stable), 0, 4 (bucket 3), 2.
    const std::vector<VertexId> expect{2, 0, 4, 1, 3};
    EXPECT_EQ(l2p, expect);
}

TEST(RenumberPlan, PlanIsAlwaysAPermutation)
{
    Rng rng(77);
    for (const RenumberMode mode :
         {RenumberMode::kHubSort, RenumberMode::kDegreeGroup}) {
        std::vector<std::uint64_t> degrees(500);
        for (auto& d : degrees) {
            d = rng.below(40);
        }
        const auto l2p = LocalityRenumberer::plan(degrees, mode);
        std::vector<bool> hit(l2p.size(), false);
        for (const VertexId p : l2p) {
            ASSERT_LT(p, l2p.size());
            EXPECT_FALSE(hit[p]) << to_string(mode);
            hit[p] = true;
        }
    }
}

// ---------------------------------------------------------------- monitor

/**
 * One synthetic window: 64 equally-hot vertices at ids i*spacing (64
 * touches each) over a 512-touch uniform background at ids 4096+.  The
 * hot set always clears the skew gate; `spacing` controls the placement
 * density the window scores (spacing 8 = one hot row per line, terrible;
 * spacing 1 = packed, perfect).
 */
void
feed_hot_window(LocalityMonitor& m, std::uint32_t spacing)
{
    for (VertexId i = 0; i < 64; ++i) {
        for (int k = 0; k < 64; ++k) {
            m.observe(i * spacing);
        }
    }
    for (VertexId i = 0; i < 512; ++i) {
        m.observe(4096 + i);
    }
}

void
feed_uniform_window(LocalityMonitor& m)
{
    for (VertexId v = 0; v < 1024; ++v) {
        m.observe(v);
    }
}

TEST(RenumberMonitor, UniformWindowScoresPerfectAndNeverFires)
{
    RenumberParams p;
    p.warmup_windows = 1;
    p.cooldown_windows = 1;
    LocalityMonitor m(p);
    const VertexIdMap identity;
    for (int w = 0; w < 20; ++w) {
        feed_uniform_window(m);
        const double ewma = m.end_window(identity);
        EXPECT_DOUBLE_EQ(m.last_window_score(), 1.0);
        EXPECT_DOUBLE_EQ(ewma, 1.0);
        EXPECT_FALSE(m.should_renumber());
    }
}

TEST(RenumberMonitor, ScatteredHotSetFiresAfterWarmup)
{
    RenumberParams p;
    p.warmup_windows = 4;
    LocalityMonitor m(p);
    const VertexIdMap identity;
    for (std::uint32_t w = 1; w <= 8; ++w) {
        feed_hot_window(m, /*spacing=*/8);
        m.end_window(identity);
        EXPECT_LT(m.last_window_score(), 0.2);
        if (w < p.warmup_windows) {
            EXPECT_FALSE(m.should_renumber()) << "window " << w;
        }
    }
    EXPECT_LT(m.ewma(), p.threshold);
    EXPECT_TRUE(m.should_renumber());
}

TEST(RenumberMonitor, PackedPlacementOfSameTrafficScoresWell)
{
    // The same hot traffic, mapped to packed physical rows, must score
    // near-perfect: the monitor measures *placement*, not skew itself.
    RenumberParams p;
    LocalityMonitor m(p);
    VertexIdMap packed;
    // Hot ids i*8 -> rows 0..63; everything else fills the rest in order.
    std::vector<VertexId> l2p(4096 + 512);
    VertexId next_hot = 0;
    VertexId next_cold = 64;
    for (VertexId l = 0; l < l2p.size(); ++l) {
        const bool hot = l % 8 == 0 && l < 64 * 8;
        l2p[l] = hot ? next_hot++ : next_cold++;
    }
    packed.rebind(l2p);
    feed_hot_window(m, /*spacing=*/8);
    m.end_window(packed);
    EXPECT_GT(m.last_window_score(), 0.8);
}

TEST(RenumberMonitor, CooldownMasksTheTriggerAfterARenumber)
{
    RenumberParams p;
    p.warmup_windows = 1;
    p.cooldown_windows = 6;
    p.ewma_alpha = 0.9;     // converge within one window
    p.refire_factor = 10.0; // isolate the cooldown gate
    LocalityMonitor m(p);
    const VertexIdMap identity;
    feed_hot_window(m, 8);
    m.end_window(identity);
    ASSERT_TRUE(m.should_renumber());
    m.note_renumbered();
    for (std::uint32_t w = 1; w < p.cooldown_windows; ++w) {
        feed_hot_window(m, 8);
        m.end_window(identity);
        EXPECT_FALSE(m.should_renumber()) << "window " << w;
    }
    feed_hot_window(m, 8);
    m.end_window(identity);
    EXPECT_TRUE(m.should_renumber());
}

TEST(RenumberMonitor, RefireHysteresisHoldsUntilPlacementDecaysFurther)
{
    RenumberParams p;
    p.warmup_windows = 1;
    p.cooldown_windows = 1;
    p.ewma_alpha = 0.9; // fast convergence keeps the arithmetic readable
    LocalityMonitor m(p);
    const VertexIdMap identity;
    feed_hot_window(m, 8);
    m.end_window(identity);
    ASSERT_TRUE(m.should_renumber());
    m.note_renumbered();
    // The "renumber" only achieved a mediocre layout: spacing 2 scores
    // ~0.5 — below the 0.55 threshold, but not below what the pass
    // achieved times refire_factor.  Without the hysteresis this would
    // re-fire every cooldown and reproduce the same layout each time.
    for (int w = 0; w < 6; ++w) {
        feed_hot_window(m, 2);
        m.end_window(identity);
        EXPECT_FALSE(m.should_renumber()) << "window " << w;
    }
    EXPECT_LT(m.ewma(), p.threshold);
    // A genuine shift (placement decaying far below the achieved score)
    // un-masks the trigger.
    for (int w = 0; w < 3; ++w) {
        feed_hot_window(m, 8);
        m.end_window(identity);
    }
    EXPECT_TRUE(m.should_renumber());
}

// ----------------------------------- backend permutation invariance

/** Full logical-read state of a backend (what renumbering must fix). */
struct LogicalState {
    std::size_t num_vertices = 0;
    EdgeId num_edges = 0;
    std::vector<std::vector<Neighbor>> out, in;
    std::vector<std::uint64_t> bids;
};

template <typename Graph>
LogicalState
capture(const Graph& g)
{
    LogicalState s;
    s.num_vertices = g.num_vertices();
    s.num_edges = g.num_edges();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        s.out.push_back(g.sorted_edges(v, kOut));
        s.in.push_back(g.sorted_edges(v, kIn));
        s.bids.push_back(g.latest_bid(v));
    }
    return s;
}

void
expect_states_bitwise_equal(const LogicalState& a, const LogicalState& b)
{
    ASSERT_EQ(a.num_vertices, b.num_vertices);
    EXPECT_EQ(a.num_edges, b.num_edges);
    EXPECT_EQ(a.bids, b.bids);
    const auto expect_rows_equal = [](const std::vector<Neighbor>& ea,
                                      const std::vector<Neighbor>& eb,
                                      std::size_t v) {
        ASSERT_EQ(ea.size(), eb.size()) << "vertex " << v;
        for (std::size_t i = 0; i < ea.size(); ++i) {
            ASSERT_EQ(ea[i].id, eb[i].id) << "vertex " << v;
            // Bitwise: renumbering must not touch weights at all.
            ASSERT_EQ(ea[i].weight, eb[i].weight) << "vertex " << v;
        }
    };
    for (std::size_t v = 0; v < a.num_vertices; ++v) {
        expect_rows_equal(a.out[v], b.out[v], v);
        expect_rows_equal(a.in[v], b.in[v], v);
    }
}

/**
 * The core tentpole property, per backend: every public (logical) read
 * is invariant under apply_renumber — across a random permutation, a
 * planner permutation, and interleaved further updates against a
 * never-renumbered twin.
 */
template <typename Graph>
void
expect_renumber_invariance(Graph& g, Graph& twin, std::uint64_t seed)
{
    constexpr std::size_t kN = 300;
    ASSERT_EQ(g.num_vertices(), kN);
    const auto apply = [](Graph& dst, const std::vector<StreamEdge>& ops) {
        for (const StreamEdge& e : ops) {
            if (!e.is_delete) {
                dst.apply_insert(e.src, {e.dst, e.weight}, kOut);
                dst.apply_insert(e.dst, {e.src, e.weight}, kIn);
            }
        }
        for (const StreamEdge& e : ops) {
            if (e.is_delete) {
                dst.apply_remove(e.src, e.dst, kOut);
                dst.apply_remove(e.dst, e.src, kIn);
            }
        }
    };
    const auto first = mixed_stream(6000, seed);
    apply(g, first);
    apply(twin, first);
    for (VertexId v = 0; v < kN; v += 17) {
        g.exchange_latest_bid(v, 1000 + v);
        twin.exchange_latest_bid(v, 1000 + v);
    }

    // 1) Random permutation: reads unchanged, bitwise.
    const LogicalState before = capture(g);
    g.apply_renumber(random_permutation(kN, seed * 3 + 1));
    EXPECT_TRUE(g.id_map().enabled());
    EXPECT_FALSE(g.id_map().is_identity());
    expect_states_bitwise_equal(before, capture(g));

    // 2) Keep streaming on the renumbered graph, then renumber again
    //    with a planner permutation of the live degrees: still equal to
    //    the never-renumbered twin.
    const auto second = mixed_stream(6000, seed + 50);
    apply(g, second);
    apply(twin, second);
    std::vector<std::uint64_t> degrees(kN);
    for (VertexId v = 0; v < kN; ++v) {
        degrees[v] = static_cast<std::uint64_t>(g.degree(v, kOut)) +
                     g.degree(v, kIn);
    }
    g.apply_renumber(
        LocalityRenumberer::plan(degrees, RenumberMode::kHubSort));
    expect_states_bitwise_equal(capture(twin), capture(g));
}

TEST(RenumberBackends, AdjacencyListReadsInvariant)
{
    for (const std::uint64_t seed : harness_seeds({201, 202})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::AdjacencyList g(300);
        graph::AdjacencyList twin(300);
        expect_renumber_invariance(g, twin, seed);
    }
}

TEST(RenumberBackends, HybridStoreReadsInvariant)
{
    for (const std::uint64_t seed : harness_seeds({221, 222})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::HybridStore g(300, tight_tuning());
        graph::HybridStore twin(300, tight_tuning());
        expect_renumber_invariance(g, twin, seed);
    }
}

TEST(RenumberBackends, DegreeAwareHashReadsInvariant)
{
    for (const std::uint64_t seed : harness_seeds({231, 232})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::DegreeAwareHash g(300, tight_tuning());
        graph::DegreeAwareHash twin(300, tight_tuning());
        expect_renumber_invariance(g, twin, seed);
    }
}

TEST(RenumberBackends, IdentityRebindIsInvisible)
{
    graph::AdjacencyList g(64);
    for (const StreamEdge& e : mixed_stream(800, 303)) {
        if (!e.is_delete && e.src < 64 && e.dst < 64) {
            g.apply_insert(e.src, {e.dst, e.weight}, kOut);
            g.apply_insert(e.dst, {e.src, e.weight}, kIn);
        }
    }
    const LogicalState before = capture(g);
    std::vector<VertexId> ident(64);
    std::iota(ident.begin(), ident.end(), VertexId{0});
    g.apply_renumber(ident);
    EXPECT_TRUE(g.id_map().enabled());
    EXPECT_TRUE(g.id_map().is_identity());
    expect_states_bitwise_equal(before, capture(g));
}

// ------------------------------------------------- engine-level trigger

constexpr std::size_t kEngVertices = 4096;
constexpr std::size_t kEngHubs = 512;
constexpr std::size_t kEngBatch = 2048;

const std::vector<VertexId>&
eng_hubs()
{
    static const std::vector<VertexId> kHubs = [] {
        std::vector<VertexId> perm(kEngVertices);
        std::iota(perm.begin(), perm.end(), VertexId{0});
        Rng rng(0xd15c0);
        for (std::size_t i = kEngVertices - 1; i > 0; --i) {
            std::swap(perm[i], perm[rng.below(i + 1)]);
        }
        perm.resize(kEngHubs);
        return perm;
    }();
    return kHubs;
}

stream::EdgeBatch
eng_batch(std::uint64_t id, Rng& rng, bool hub_heavy)
{
    std::vector<StreamEdge> edges;
    edges.reserve(kEngBatch);
    const auto endpoint = [&]() -> VertexId {
        if (hub_heavy && rng.chance(0.95)) {
            // u^8 within-hub skew: concentrated enough that the hot set
            // clears the monitor's skew gate (see bench_renumber.cc).
            const double u = rng.uniform();
            const double sq = u * u;
            const double quad = sq * sq;
            const auto idx =
                static_cast<std::size_t>(quad * quad * kEngHubs);
            return eng_hubs()[idx < kEngHubs ? idx : kEngHubs - 1];
        }
        return static_cast<VertexId>(rng.below(kEngVertices));
    };
    for (std::size_t i = 0; i < kEngBatch; ++i) {
        StreamEdge e;
        e.src = endpoint();
        e.dst = endpoint();
        e.weight = 1.0f;
        edges.push_back(e);
    }
    return stream::EdgeBatch(id, std::move(edges));
}

core::EngineConfig
eng_config(bool renumber_on)
{
    core::EngineConfig cfg;
    cfg.policy = core::UpdatePolicy::kBaseline;
    cfg.renumber.enabled = renumber_on;
    cfg.renumber.warmup_windows = 2;
    cfg.renumber.cooldown_windows = 4;
    return cfg;
}

TEST(RenumberEngine, HubHeavyStreamTriggersAndPreservesLogicalState)
{
    core::RealTimeEngine on(eng_config(true), kEngVertices);
    core::RealTimeEngine off(eng_config(false), kEngVertices);
    Rng rng_on(0xbeef01);
    Rng rng_off(0xbeef01);
    for (std::uint64_t k = 1; k <= 12; ++k) {
        (void)on.ingest(eng_batch(k, rng_on, /*hub_heavy=*/true));
        (void)off.ingest(eng_batch(k, rng_off, /*hub_heavy=*/true));
    }
    const core::RenumberStats& rs = on.renumber_stats();
    EXPECT_GE(rs.renumbers, 1u);
    EXPECT_EQ(rs.windows, 12u);
    EXPECT_TRUE(on.graph().id_map().enabled());
    EXPECT_FALSE(on.graph().id_map().is_identity());
    // Renumbering is a physical-layout change only: the logical graph is
    // bitwise the one the renumber-off engine built.
    EXPECT_EQ(off.renumber_stats().renumbers, 0u);
    EXPECT_FALSE(off.graph().id_map().enabled());
    expect_states_bitwise_equal(capture(off.graph()), capture(on.graph()));
}

TEST(RenumberEngine, UniformStreamNeverTriggers)
{
    core::RealTimeEngine engine(eng_config(true), kEngVertices);
    Rng rng(0xbeef02);
    for (std::uint64_t k = 1; k <= 12; ++k) {
        (void)engine.ingest(eng_batch(k, rng, /*hub_heavy=*/false));
    }
    EXPECT_EQ(engine.renumber_stats().renumbers, 0u);
    EXPECT_EQ(engine.renumber_stats().windows, 12u);
    EXPECT_DOUBLE_EQ(engine.renumber_stats().locality_ewma, 1.0);
    EXPECT_FALSE(engine.graph().id_map().enabled());
}

TEST(RenumberEngine, AnyEngineForwardsStatsAndTriggersOnHybrid)
{
    ThreadPool pool(1);
    core::EngineConfig cfg = eng_config(true);
    cfg.graph_backend = core::GraphBackend::kHybrid;
    core::AnyRealTimeEngine engine(cfg, kEngVertices, pool);
    Rng rng(0xbeef03);
    for (std::uint64_t k = 1; k <= 12; ++k) {
        (void)engine.ingest(eng_batch(k, rng, /*hub_heavy=*/true));
    }
    EXPECT_GE(engine.renumber_stats().renumbers, 1u);
    EXPECT_EQ(engine.renumber_stats().windows, 12u);
    const auto& g = engine.engine<graph::HybridStore>().graph();
    EXPECT_TRUE(g.id_map().enabled());
}

TEST(RenumberEngine, PipelineDepthTwoMatchesRenumberOffSerial)
{
    core::EngineConfig serial_cfg = eng_config(false);
    serial_cfg.oca.enabled = false;
    core::EngineConfig piped_cfg = eng_config(true);
    piped_cfg.oca.enabled = false;
    piped_cfg.pipeline_depth = 2;

    ThreadPool pool(4);
    core::HybridRealTimeEngine serial(serial_cfg, kEngVertices, pool);
    core::HybridRealTimeEngine piped(piped_cfg, kEngVertices, pool);
    piped.set_compute(
        [](const graph::SnapshotView&, const core::PendingWork&) {});
    Rng rng_a(0xbeef04);
    Rng rng_b(0xbeef04);
    for (std::uint64_t k = 1; k <= 10; ++k) {
        (void)serial.ingest(eng_batch(k, rng_a, /*hub_heavy=*/true));
        (void)piped.ingest(eng_batch(k, rng_b, /*hub_heavy=*/true));
    }
    piped.flush_pipeline();
    EXPECT_GE(piped.renumber_stats().renumbers, 1u);
    EXPECT_TRUE(piped.graph().same_topology(serial.graph()));
    // The published snapshot is logical, so it too is renumber-invariant.
    const graph::SnapshotView snap = piped.snapshot();
    EXPECT_EQ(snap.num_edges(), piped.graph().num_edges());
}

// -------------------------------- incremental state survives renumbers

analytics::PageRankParams
tight_pagerank()
{
    analytics::PageRankParams p;
    p.tolerance = 1e-12;
    p.max_iterations = 250;
    return p;
}

IncrementalConfig
inc_config(IncrementalPolicy policy)
{
    IncrementalConfig cfg;
    cfg.policy.policy = policy;
    cfg.pagerank = tight_pagerank();
    return cfg;
}

std::vector<std::vector<StreamEdge>>
inc_epochs(std::uint64_t seed)
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
    for (std::size_t i = 0; i < 8; ++i) {
        out.push_back(generator.take(250));
    }
    return out;
}

/**
 * The memoized kernels key every per-vertex array by *logical* id and
 * read the graph only through its public API, so their warm state must
 * survive a renumber mid-stream bit-for-bit: delta results keep
 * matching the from-scratch references before and after each pass.
 */
template <typename Graph>
void
expect_incremental_survives_renumber(Graph& g, std::uint64_t seed)
{
    IncrementalAnalytics inc(inc_config(IncrementalPolicy::kDeltaPropagate));
    IncrementalAnalytics ref(inc_config(IncrementalPolicy::kFullRerun));
    stream::PendingAccumulator acc;
    EpochId epoch = 0;
    for (const auto& ops : inc_epochs(seed)) {
        for (const StreamEdge& e : ops) {
            if (!e.is_delete) {
                g.apply_insert(e.src, {e.dst, e.weight}, kOut);
                g.apply_insert(e.dst, {e.src, e.weight}, kIn);
            }
        }
        for (const StreamEdge& e : ops) {
            if (e.is_delete) {
                g.apply_remove(e.src, e.dst, kOut);
                g.apply_remove(e.dst, e.src, kIn);
            }
        }
        acc.note_batch(stream::EdgeBatch(epoch + 1, ops));
        const auto work = acc.hand_off(++epoch);
        // Renumber *between* publish and compute (the engine's order:
        // the pass runs at the ingest tail), with warm memo state from
        // the pre-renumber epochs, twice, with both planner modes.
        if (epoch == 3 || epoch == 6) {
            std::vector<std::uint64_t> degrees(g.num_vertices());
            for (VertexId v = 0; v < g.num_vertices(); ++v) {
                degrees[v] = static_cast<std::uint64_t>(g.degree(v, kOut)) +
                             g.degree(v, kIn);
            }
            g.apply_renumber(LocalityRenumberer::plan(
                degrees, epoch == 3 ? RenumberMode::kHubSort
                                    : RenumberMode::kDegreeGroup));
        }
        (void)inc.on_epoch(g, work);
        (void)ref.on_epoch(g, work);
        SCOPED_TRACE("epoch=" + std::to_string(epoch));
        EXPECT_EQ(inc.sssp().distances(), ref.sssp().distances());
        EXPECT_EQ(inc.bfs().hops(), ref.bfs().hops());
        EXPECT_EQ(ref.sssp().distances(), analytics::static_sssp(g, 0));
        EXPECT_EQ(ref.bfs().hops(), analytics::bfs_distances(g, 0));
        const auto& ra = inc.pagerank().ranks();
        const auto& rb = ref.pagerank().ranks();
        ASSERT_EQ(ra.size(), rb.size());
        for (std::size_t v = 0; v < ra.size(); ++v) {
            EXPECT_NEAR(ra[v], rb[v], 1e-8) << "vertex " << v;
        }
    }
    EXPECT_TRUE(g.id_map().enabled());
    EXPECT_GT(inc.delta_epochs(), 0u);
}

TEST(RenumberIncremental, AdjacencyListStateSurvivesMidStream)
{
    for (const std::uint64_t seed : harness_seeds({231})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::AdjacencyList g(300);
        expect_incremental_survives_renumber(g, seed);
    }
}

TEST(RenumberIncremental, HybridStoreStateSurvivesMidStream)
{
    for (const std::uint64_t seed : harness_seeds({233})) {
        SCOPED_TRACE(seed_trace(seed));
        graph::HybridStore g(300, tight_tuning());
        expect_incremental_survives_renumber(g, seed);
    }
}

} // namespace
} // namespace igs
