/**
 * @file
 * Tests for the paper's contribution layer: CAD_λ, the ABR and OCA
 * controllers, and the input-aware engines.
 */
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/abr.h"
#include "core/cad.h"
#include "core/engine.h"
#include "core/oca.h"
#include "gen/datasets.h"
#include "sim/sim_engine.h"
#include "gen/edge_stream.h"
#include "stream/reorder.h"

namespace igs::core {
namespace {

// ------------------------------------------------------------------ cad
TEST(Cad, FormulaFromHistogram)
{
    // Batch of b=100 edges: 40 edges from degree-1 vertices, 20 from
    // degree-2 (10 vertices), 40 from two degree-20 vertices.
    Histogram h;
    h.add(1, 40);
    h.add(2, 10);
    h.add(20, 2);
    // lambda = 10: y = 40 + 20 = 60, x = 2 -> CAD = (100-60)/2 = 20.
    EXPECT_DOUBLE_EQ(cad_from_histogram(h, 100, 10), 20.0);
    // lambda = 1: y = 40, x = 12 -> CAD = 60/12 = 5.
    EXPECT_DOUBLE_EQ(cad_from_histogram(h, 100, 1), 5.0);
}

TEST(Cad, ZeroWhenNoVertexAboveLambda)
{
    Histogram h;
    h.add(1, 50);
    h.add(3, 10);
    EXPECT_DOUBLE_EQ(cad_from_histogram(h, 80, 256), 0.0);
}

std::vector<StreamEdge>
skewed_batch(std::size_t n, std::uint64_t seed)
{
    gen::StreamModel m;
    m.num_vertices = 10000;
    m.num_hubs = 4;
    m.hub_mass_dst = 0.4;
    m.zipf_s = 1.0;
    m.seed = seed;
    return gen::EdgeStreamGenerator(m).take(n);
}

TEST(Cad, ReorderedAndHashedPathsAgree)
{
    const auto edges = skewed_batch(5000, 3);
    const auto rb = stream::reorder_batch(edges, default_pool());
    const auto a = cad_from_reordered(rb, 64);
    const auto b = cad_from_batch(edges, 64);
    EXPECT_DOUBLE_EQ(a.cad_out, b.cad_out);
    EXPECT_DOUBLE_EQ(a.cad_in, b.cad_in);
    EXPECT_EQ(a.max_in_degree, b.max_in_degree);
    EXPECT_EQ(a.max_out_degree, b.max_out_degree);
}

TEST(Cad, MaxIsOverBothDirections)
{
    CadResult r;
    r.cad_out = 10.0;
    r.cad_in = 30.0;
    r.max_out_degree = 5;
    r.max_in_degree = 2;
    EXPECT_DOUBLE_EQ(r.cad(), 30.0);
    EXPECT_EQ(r.max_degree(), 5u);
}

// ------------------------------------------------------------------ abr
TEST(Abr, DefaultsToReordering)
{
    AbrController abr;
    EXPECT_TRUE(abr.reordering());
}

TEST(Abr, ActiveEveryNthBatch)
{
    AbrParams p;
    p.n = 3;
    p.threshold = 1e18; // decision will flip to "don't reorder"
    AbrController abr(p);
    const auto edges = skewed_batch(100, 1);
    const auto rb = stream::reorder_batch(edges, default_pool());
    std::vector<bool> actives;
    for (int i = 0; i < 7; ++i) {
        const auto d = abr.decide(edges, abr.reordering() ? &rb : nullptr);
        actives.push_back(d.active);
    }
    EXPECT_EQ(actives, (std::vector<bool>{true, false, false, true, false,
                                          false, true}));
}

TEST(Abr, DecisionAppliesToFollowingBatchesOnly)
{
    AbrParams p;
    p.n = 2;
    p.lambda = 4;
    p.threshold = 1e18; // unreachable: every active batch turns RO off
    AbrController abr(p);
    const auto edges = skewed_batch(1000, 2);
    const auto rb = stream::reorder_batch(edges, default_pool());
    // First batch: instrumented while still reordering (the default).
    const auto d1 = abr.decide(edges, &rb);
    EXPECT_TRUE(d1.reorder);
    EXPECT_TRUE(d1.active);
    ASSERT_TRUE(d1.cad.has_value());
    // The latched decision flipped for subsequent batches.
    EXPECT_FALSE(abr.reordering());
    const auto d2 = abr.decide(edges, nullptr);
    EXPECT_FALSE(d2.reorder);
    EXPECT_FALSE(d2.active);
}

TEST(Abr, HighCadKeepsReorderingOn)
{
    AbrParams p;
    p.n = 1; // every batch active
    p.lambda = 16;
    p.threshold = 10.0;
    AbrController abr(p);
    const auto edges = skewed_batch(5000, 4); // heavy hubs -> high CAD
    const auto rb = stream::reorder_batch(edges, default_pool());
    for (int i = 0; i < 3; ++i) {
        const auto d = abr.decide(edges, &rb);
        EXPECT_TRUE(d.reorder);
        EXPECT_TRUE(abr.reordering());
    }
}

TEST(Abr, InstrumentationCostDependsOnPath)
{
    AbrParams p;
    p.n = 1;
    AbrController abr(p);
    const auto edges = skewed_batch(1000, 5);
    const auto rb = stream::reorder_batch(edges, default_pool());
    const auto cheap = abr.decide(edges, &rb);
    // Force the hashed path by reporting no reordered view available.
    AbrController abr2(p);
    // abr2 defaults to reordering=true but gets no reordered batch:
    const auto costly = abr2.decide(edges, nullptr);
    EXPECT_GT(costly.instrumentation_cycles, cheap.instrumentation_cycles);
}

// ------------------------------------------------------------------ oca
TEST(Oca, AggregatesAboveThreshold)
{
    OcaController oca{OcaParams{true, 0.25, 2.0}};
    stream::OcaProbe probe;
    for (int i = 0; i < 10; ++i) {
        probe.note(4, 5); // 100% overlap
    }
    const auto d1 = oca.decide(&probe);
    EXPECT_TRUE(oca.aggregation_latched());
    EXPECT_TRUE(d1.defer_compute);
    // Second batch of the aggregated pair computes.
    const auto d2 = oca.decide(nullptr);
    EXPECT_FALSE(d2.defer_compute);
    // Pattern repeats while aggregation stays latched.
    EXPECT_TRUE(oca.decide(nullptr).defer_compute);
    EXPECT_FALSE(oca.decide(nullptr).defer_compute);
}

TEST(Oca, StaysOffBelowThreshold)
{
    OcaController oca{OcaParams{true, 0.25, 2.0}};
    stream::OcaProbe probe;
    probe.note(4, 5);
    probe.note(0, 5);
    probe.note(0, 5);
    probe.note(0, 5);
    probe.note(0, 5); // 20% overlap, below the 25% threshold
    const auto d = oca.decide(&probe);
    EXPECT_FALSE(oca.aggregation_latched());
    EXPECT_FALSE(d.defer_compute);
}

TEST(Oca, DisabledNeverDefers)
{
    OcaController oca{OcaParams{false, 0.25, 2.0}};
    stream::OcaProbe probe;
    probe.note(4, 5);
    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(oca.decide(&probe).defer_compute);
    }
}

TEST(Oca, ReleasesPendingWhenOverlapDrops)
{
    OcaController oca{OcaParams{true, 0.25, 2.0}};
    stream::OcaProbe high;
    high.note(4, 5);
    EXPECT_TRUE(oca.decide(&high).defer_compute);
    // New measurement shows no overlap: aggregation unlatches and the
    // deferred round is released immediately.
    stream::OcaProbe low;
    low.note(0, 7);
    EXPECT_FALSE(oca.decide(&low).defer_compute);
}

// --------------------------------------------------------------- engine
EngineConfig
config_for(UpdatePolicy policy)
{
    EngineConfig cfg;
    cfg.policy = policy;
    cfg.abr.n = 2;
    return cfg;
}

stream::EdgeBatch
engine_batch(std::uint64_t id, std::size_t n, std::uint64_t seed)
{
    gen::StreamModel m;
    m.num_vertices = 2000;
    m.num_hubs = 8;
    m.hub_mass_dst = 0.3;
    m.seed = seed;
    stream::EdgeBatch b;
    b.id = id;
    b.set_edges(gen::EdgeStreamGenerator(m).take(n));
    return b;
}

class EnginePolicyTest : public ::testing::TestWithParam<UpdatePolicy> {};

TEST_P(EnginePolicyTest, ProducesBaselineEquivalentState)
{
    const UpdatePolicy policy = GetParam();
    sim::SimEngine engine(config_for(policy), sim::MachineParams{},
                     sim::SwCostParams{}, sim::HauCostParams{}, 2000);
    graph::AdjacencyList reference(2000);
    stream::RealContext ctx;
    for (std::uint64_t k = 1; k <= 4; ++k) {
        const auto batch = engine_batch(k, 1500, 70 + k);
        const auto report = engine.ingest(batch);
        EXPECT_EQ(report.batch_id, k);
        EXPECT_GT(report.update.cycles, 0u);
        stream::apply_batch_baseline(reference, batch, ctx);
    }
    EXPECT_TRUE(engine.graph().same_topology(reference));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EnginePolicyTest,
    ::testing::Values(UpdatePolicy::kBaseline, UpdatePolicy::kAlwaysReorder,
                      UpdatePolicy::kAlwaysReorderUsc,
                      UpdatePolicy::kAlwaysHau, UpdatePolicy::kAbr,
                      UpdatePolicy::kAbrUsc, UpdatePolicy::kAbrUscHau));

TEST(SimEngine, DispatchFlagsMatchPolicy)
{
    // kAbrUscHau on a low-degree stream: ABR turns reordering off after
    // the first active batch and HAU takes over.
    sim::SimEngine engine(config_for(UpdatePolicy::kAbrUscHau),
                     sim::MachineParams{}, sim::SwCostParams{},
                     sim::HauCostParams{}, 2000);
    gen::StreamModel m;
    m.num_vertices = 2000;
    m.seed = 123; // uniform: adverse
    gen::EdgeStreamGenerator g(m);
    bool saw_hau = false;
    for (std::uint64_t k = 1; k <= 4; ++k) {
        stream::EdgeBatch b;
        b.id = k;
        b.set_edges(g.take(1000));
        const auto r = engine.ingest(b);
        if (k == 1) {
            EXPECT_TRUE(r.reordered); // default-RO first batch
            EXPECT_TRUE(r.abr_active);
            ASSERT_TRUE(r.cad.has_value());
            EXPECT_LT(r.cad->cad(), engine.config().abr.threshold);
        } else {
            EXPECT_FALSE(r.reordered);
            saw_hau = saw_hau || r.used_hau;
        }
    }
    EXPECT_TRUE(saw_hau);
}

TEST(SimEngine, PendingWorkAccumulatesAcrossDeferredBatches)
{
    EngineConfig cfg = config_for(UpdatePolicy::kBaseline);
    cfg.oca.enabled = true;
    cfg.oca.threshold = 0.0; // always aggregate once measured
    cfg.abr.n = 1;           // probe every batch
    sim::SimEngine engine(cfg, sim::MachineParams{}, sim::SwCostParams{},
                     sim::HauCostParams{}, 2000);
    // Batch 1 has no predecessor: OCA cannot measure overlap yet, so its
    // compute round runs immediately.
    const auto r1 = engine.ingest(engine_batch(1, 500, 7));
    EXPECT_FALSE(r1.defer_compute);
    EXPECT_TRUE(engine.compute_due());
    (void)engine.take_pending_work();
    // Batch 2 carries the first locality sample; with threshold 0 the
    // aggregation latches and defers this batch's round.
    const auto r2 = engine.ingest(engine_batch(2, 500, 8));
    EXPECT_TRUE(r2.defer_compute);
    EXPECT_FALSE(engine.compute_due());
    // Batch 3 completes the aggregated pair.
    const auto r3 = engine.ingest(engine_batch(3, 500, 9));
    EXPECT_FALSE(r3.defer_compute);
    EXPECT_TRUE(engine.compute_due());
    const auto work = engine.take_pending_work();
    EXPECT_EQ(work.batches, 2u);
    EXPECT_EQ(work.inserted.size(), 1000u);
    // Affected vertices are deduplicated.
    for (std::size_t i = 1; i < work.affected.size(); ++i) {
        ASSERT_LT(work.affected[i - 1], work.affected[i]);
    }
}

TEST(SimEngine, InstrumentationChargedOnActiveBatches)
{
    EngineConfig cfg = config_for(UpdatePolicy::kAbrUsc);
    cfg.abr.n = 4;
    sim::SimEngine engine(cfg, sim::MachineParams{}, sim::SwCostParams{},
                     sim::HauCostParams{}, 2000);
    const auto r1 = engine.ingest(engine_batch(1, 1000, 9));
    EXPECT_TRUE(r1.abr_active);
    EXPECT_GT(r1.instrumentation_cycles, 0.0);
    const auto r2 = engine.ingest(engine_batch(2, 1000, 10));
    EXPECT_FALSE(r2.abr_active);
    // Inert batches still pay the (tiny) OCA latest_bid upkeep only.
    EXPECT_LT(r2.instrumentation_cycles, r1.instrumentation_cycles);
}

TEST(RealTimeEngine, RunsAllPoliciesWithRealThreads)
{
    ThreadPool pool(4);
    for (auto policy : {UpdatePolicy::kBaseline, UpdatePolicy::kAbrUsc,
                        UpdatePolicy::kAbrUscHau}) {
        RealTimeEngine engine(config_for(policy), 2000, pool);
        graph::AdjacencyList reference(2000);
        stream::RealContext ctx(pool);
        for (std::uint64_t k = 1; k <= 3; ++k) {
            const auto batch = engine_batch(k, 1200, 30 + k);
            const auto report = engine.ingest(batch);
            EXPECT_GE(report.wall_seconds, 0.0);
            // Hardware is unavailable on a real host.
            EXPECT_FALSE(report.used_hau);
            stream::apply_batch_baseline(reference, batch, ctx);
        }
        EXPECT_TRUE(engine.graph().same_topology(reference));
    }
}

TEST(Engine, GrowsVertexSpaceOnDemand)
{
    sim::SimEngine engine(config_for(UpdatePolicy::kBaseline),
                     sim::MachineParams{}, sim::SwCostParams{},
                     sim::HauCostParams{}, 4);
    stream::EdgeBatch b;
    b.id = 1;
    b.set_edges({{100, 200, 1.0f, false}});
    engine.ingest(b);
    EXPECT_GE(engine.graph().num_vertices(), 201u);
    EXPECT_EQ(engine.graph().degree(100, Direction::kOut), 1u);
}

TEST(Engine, PolicyNames)
{
    EXPECT_STREQ(to_string(UpdatePolicy::kAbrUscHau), "ABR+USC+HAU");
    EXPECT_STREQ(to_string(UpdatePolicy::kBaseline), "baseline");
}

// ------------------------------------------------- cad property / oracle

/** Naive CAD_λ for one direction: per-vertex degrees counted in a plain
 *  map over every edge (duplicates and deletes included, mirroring the
 *  production accumulation), then the paper's (b−y)/x. */
double
oracle_cad(const std::map<VertexId, std::uint64_t>& degrees, std::size_t b,
           std::uint32_t lambda)
{
    std::uint64_t y = 0;
    std::uint64_t x = 0;
    for (const auto& [v, d] : degrees) {
        if (d > lambda) {
            ++x;
        } else {
            y += d;
        }
    }
    if (x == 0) {
        return 0.0;
    }
    return static_cast<double>(b - y) / static_cast<double>(x);
}

TEST(Cad, PropertyMatchesNaiveOracleAndAbrAgrees)
{
    Rng rng(0xC0FFEE);
    for (int iter = 0; iter < 16; ++iter) {
        // Small vertex spaces force duplicates and degrees above λ; a
        // slice of deletes checks they count toward degrees like the
        // production path does.
        const std::size_t n = 200 + rng.below(1800);
        const auto v_space = static_cast<VertexId>(2 + rng.below(300));
        std::vector<StreamEdge> edges;
        edges.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            StreamEdge e;
            if (!edges.empty() && rng.below(4) == 0) {
                e = edges[rng.below(edges.size())]; // exact duplicate
            } else {
                e.src = static_cast<VertexId>(rng.below(v_space));
                e.dst = static_cast<VertexId>(rng.below(v_space));
                e.is_delete = rng.below(8) == 0;
            }
            edges.push_back(e);
        }

        std::map<VertexId, std::uint64_t> out_deg;
        std::map<VertexId, std::uint64_t> in_deg;
        for (const StreamEdge& e : edges) {
            ++out_deg[e.src];
            ++in_deg[e.dst];
        }

        for (const std::uint32_t lambda : {1u, 4u, 16u, 64u}) {
            const double co = oracle_cad(out_deg, edges.size(), lambda);
            const double ci = oracle_cad(in_deg, edges.size(), lambda);
            const CadResult got = cad_from_batch(edges, lambda);
            EXPECT_DOUBLE_EQ(got.cad_out, co);
            EXPECT_DOUBLE_EQ(got.cad_in, ci);

            // The controller must reach the same reorder verdict the
            // oracle predicts, both for a threshold the batch clears
            // (>= boundary inclusive) and one it misses.
            const double cad = std::max(co, ci);
            for (const double threshold : {cad, cad + 1.0}) {
                AbrParams p;
                p.n = 1;
                p.lambda = lambda;
                p.threshold = threshold;
                AbrController abr(p);
                const AbrDecision d = abr.decide(edges, nullptr);
                ASSERT_TRUE(d.cad.has_value());
                EXPECT_DOUBLE_EQ(d.cad->cad(), cad);
                EXPECT_EQ(abr.reordering(), cad >= threshold)
                    << "λ=" << lambda << " cad=" << cad
                    << " threshold=" << threshold;
            }
        }
    }
}

// ------------------------------------------------------- determinism

/** One fixed-seed replay; returns every decision + modeled cycle count. */
std::vector<std::tuple<Cycles, bool, bool, bool, bool, bool, double>>
replay_decisions(ThreadPool& pool)
{
    EngineConfig cfg = config_for(UpdatePolicy::kAbrUscHau);
    cfg.oca.enabled = true;
    sim::SimEngine engine(cfg, sim::MachineParams{}, sim::SwCostParams{},
                     sim::HauCostParams{}, 2000, pool);
    std::vector<std::tuple<Cycles, bool, bool, bool, bool, bool, double>>
        out;
    for (std::uint64_t k = 1; k <= 8; ++k) {
        const auto r = engine.ingest(engine_batch(k, 1200, 40 + k));
        out.emplace_back(r.update.cycles, r.reordered, r.used_usc,
                         r.used_hau, r.abr_active, r.defer_compute,
                         r.cad.has_value() ? r.cad->cad() : -1.0);
    }
    return out;
}

TEST(SimEngine, ModeledCyclesAndDecisionsAreDeterministic)
{
    // The host pool only parallelizes reordering and CAD accumulation,
    // whose outputs are order-independent by construction — so the modeled
    // timing must be bit-identical across runs AND across worker counts.
    ThreadPool one(1);
    ThreadPool four(4);
    const auto a = replay_decisions(one);
    const auto b = replay_decisions(four);
    const auto c = replay_decisions(four); // same pool, fresh engine
    EXPECT_EQ(a, b) << "1 vs 4 workers diverged";
    EXPECT_EQ(b, c) << "same config diverged across runs";
    // The replay must exercise real decisions, not a degenerate stream.
    bool any_reorder = false;
    bool any_cycles = false;
    for (const auto& [cycles, ro, usc, hau, active, defer, cad] : a) {
        any_reorder = any_reorder || ro;
        any_cycles = any_cycles || cycles > 0;
    }
    EXPECT_TRUE(any_reorder);
    EXPECT_TRUE(any_cycles);
}

} // namespace
} // namespace igs::core
