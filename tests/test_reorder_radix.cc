/**
 * @file
 * Property tests for the radix reorder pipeline and its arena plumbing:
 *
 *  - plan_radix takes the fewest passes at the widest digit a batch
 *    affords, then the narrowest digit for them;
 *  - the radix path is *identical* (edges and runs) to the comparison-sort
 *    oracle across batch sizes, key ranges (one, two and three passes),
 *    digit-width boundaries, deletions, duplicates, and weights, on pools
 *    of 1, 2 and 4 workers;
 *  - a RealTimeEngine configured with either reorder mode reaches the same
 *    final graph under every policy;
 *  - FlatWeightTable behaves like the map it replaces;
 *  - the steady-state reorder path performs zero heap allocations, also
 *    after a batch widens the key range.
 */
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_counter.h"
#include "common/flat_table.h"
#include "common/radix.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "sim/sim_engine.h"
#include "gen/edge_stream.h"
#include "stream/reorder.h"

namespace igs::stream {
namespace {

std::vector<StreamEdge>
random_edges(std::size_t n, std::uint64_t seed, double delete_fraction,
             std::uint32_t vertices)
{
    gen::StreamModel m;
    m.num_vertices = vertices;
    m.num_hubs = std::min<std::uint32_t>(8, vertices / 2);
    m.hub_mass_dst = 0.2;
    m.delete_fraction = delete_fraction;
    m.weighted = true;
    m.seed = seed;
    return gen::EdgeStreamGenerator(m).take(n);
}

void
expect_identical(const ReorderedBatch& oracle, const ReorderedBatch& radix)
{
    EXPECT_EQ(oracle.batch_size, radix.batch_size);
    EXPECT_EQ(oracle.by_src.edges, radix.by_src.edges);
    EXPECT_EQ(oracle.by_dst.edges, radix.by_dst.edges);
    EXPECT_EQ(oracle.by_src.runs, radix.by_src.runs);
    EXPECT_EQ(oracle.by_dst.runs, radix.by_dst.runs);
}

// ----------------------------------------------------------- digit plan
TEST(RadixPlan, FewestPassesThenNarrowestDigit)
{
    struct Want {
        std::size_t n;
        std::uint32_t max_key;
        std::uint32_t passes;
        std::uint32_t bits;
    };
    const Want cases[] = {
        // One key bit at least; a lone 8-bit-or-narrower range is one pass.
        {1, 0, 1, 1}, {10, 9, 1, 4}, {255, 255, 1, 8},
        // Below 512 keys the widest digit is 8 bits.
        {100, (1u << 16) - 1, 2, 8}, {100, (1u << 24) - 1, 3, 8},
        {511, (1u << 9) - 1, 2, 5},
        // 512 keys afford 9 bits; 1,024 afford 10.
        {512, (1u << 9) - 1, 1, 9}, {1023, (1u << 18) - 1, 2, 9},
        {1023, (1u << 20) - 1, 3, 7}, {1024, (1u << 20) - 1, 2, 10},
        // 4,095 keys afford 11 bits, 4,096 afford 12.
        {4095, (1u << 16) - 1, 2, 8}, {4095, (1u << 18) - 1, 2, 9},
        {4095, (1u << 20) - 1, 2, 10}, {4095, (1u << 24) - 1, 3, 8},
        {4096, (1u << 24) - 1, 2, 12},
        // wiki's 18-bit and lj's 20-bit ids at 10K edges.
        {10000, (1u << 18) - 1, 2, 9}, {10000, (1u << 20) - 1, 2, 10},
        {10000, (1u << 16) - 1, 2, 8},
        // 65,536 keys afford the widest digit, 16 bits.
        {65535, (1u << 16) - 1, 2, 8}, {65536, (1u << 16) - 1, 1, 16},
        {65535, 0xFFFFFFFFu, 3, 11}, {65536, 0xFFFFFFFFu, 2, 16},
        {100000, (1u << 16) - 1, 1, 16}, {100000, 1u << 16, 2, 9},
        {100000, (1u << 24) - 1, 2, 12},
    };
    for (const Want& c : cases) {
        const RadixPlan plan = plan_radix(c.n, c.max_key);
        EXPECT_EQ(plan.passes, c.passes) << "n=" << c.n << " max=" << c.max_key;
        EXPECT_EQ(plan.bits, c.bits) << "n=" << c.n << " max=" << c.max_key;
        EXPECT_GE(plan.passes * plan.bits,
                  static_cast<std::uint32_t>(std::bit_width(c.max_key)));
    }
}

// ------------------------------------------------ radix == oracle property
struct RadixCase {
    std::size_t n;
    double delete_fraction;
    std::uint32_t vertices;
};

class RadixOracleTest : public ::testing::TestWithParam<RadixCase> {};

TEST_P(RadixOracleTest, MatchesComparisonSortExactly)
{
    const RadixCase c = GetParam();
    for (const std::size_t threads : {1, 2, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " workers");
        ThreadPool pool(threads);
        Reorderer radix(ReorderMode::kRadix);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            auto edges =
                random_edges(c.n, seed, c.delete_fraction, c.vertices);
            // Pin the key range to the vertex space, so the space alone
            // fixes the case's digit plan.
            edges.back().src = c.vertices - 1;
            const ReorderedBatch oracle = reorder_batch(edges, pool);
            const ReorderedBatch& rb = radix.reorder(edges, pool);
            expect_identical(oracle, rb);
            EXPECT_EQ(radix.last_max_vertex(), max_vertex_of(edges));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixOracleTest,
    ::testing::Values(
        // Small batches and key ranges take one narrow pass; duplicates
        // are guaranteed by the tiny vertex space.
        RadixCase{1, 0.0, 10}, RadixCase{100, 0.0, 20},
        RadixCase{500, 0.2, 50},
        RadixCase{5000, 0.0, 300}, RadixCase{20000, 0.15, 3000},
        // Vertex ids beyond 2^16 force the multi-pass (ping-pong) path;
        // 50K edges split across workers.
        RadixCase{5000, 0.0, 200000}, RadixCase{50000, 0.1, 1000000}));

// Each side of the digit-width boundaries (512, 1,024, 4,096 and 65,536
// keys) and of the one-pass key range, over the vertex spaces of
// RadixPlan.FewestPassesThenNarrowestDigit: one, two and three passes.
// 100K edges split across every pool's workers.
INSTANTIATE_TEST_SUITE_P(
    Plans, RadixOracleTest,
    ::testing::Values(
        RadixCase{511, 0.1, 1u << 9}, RadixCase{512, 0.1, 1u << 9},
        RadixCase{1023, 0.1, 1u << 20}, RadixCase{1024, 0.1, 1u << 20},
        RadixCase{4095, 0.1, 1u << 16}, RadixCase{4095, 0.1, 1u << 18},
        RadixCase{4095, 0.1, 1u << 20}, RadixCase{4095, 0.1, 1u << 24},
        RadixCase{4096, 0.1, 1u << 16}, RadixCase{4096, 0.1, 1u << 18},
        RadixCase{4096, 0.1, 1u << 20}, RadixCase{4096, 0.1, 1u << 24},
        RadixCase{10000, 0.1, 1u << 16}, RadixCase{10000, 0.1, 1u << 18},
        RadixCase{10000, 0.1, 1u << 20}, RadixCase{10000, 0.1, 1u << 24},
        RadixCase{65535, 0.1, 0xFFFFFFFFu},
        RadixCase{65536, 0.1, 0xFFFFFFFFu},
        RadixCase{100000, 0.1, 1u << 16},
        RadixCase{100000, 0.1, (1u << 16) + 1},
        RadixCase{100000, 0.1, 1u << 18}, RadixCase{100000, 0.1, 1u << 20},
        RadixCase{100000, 0.1, 1u << 24}),
    [](const ::testing::TestParamInfo<RadixCase>& info) {
        return "n" + std::to_string(info.param.n) + "_vertices" +
               std::to_string(info.param.vertices);
    });

TEST(RadixReorder, EmptyBatch)
{
    Reorderer radix(ReorderMode::kRadix);
    const ReorderedBatch& rb = radix.reorder({}, default_pool());
    EXPECT_EQ(rb.batch_size, 0u);
    EXPECT_TRUE(rb.by_src.runs.empty());
    EXPECT_TRUE(rb.by_dst.runs.empty());
    EXPECT_EQ(radix.last_max_vertex(), 0u);
}

TEST(RadixReorder, ArenaSurvivesShrinkingAndGrowingBatches)
{
    ThreadPool& pool = default_pool();
    Reorderer radix(ReorderMode::kRadix);
    // Alternate sizes and key ranges so scratch reuse crosses plan shapes.
    const std::size_t sizes[] = {10000, 100, 30000, 1, 5000};
    const std::uint32_t spaces[] = {500, 40, 300000, 5, 70000};
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const auto edges = random_edges(sizes[i], 77 + i, 0.1, spaces[i]);
        expect_identical(reorder_batch(edges, pool),
                         radix.reorder(edges, pool));
    }
}

// -------------------------------------------- engine-level mode equivalence
class ReorderModeEngineTest
    : public ::testing::TestWithParam<core::UpdatePolicy> {};

TEST_P(ReorderModeEngineTest, FinalGraphIndependentOfReorderMode)
{
    core::EngineConfig radix_cfg;
    radix_cfg.policy = GetParam();
    radix_cfg.reorder_mode = ReorderMode::kRadix;
    core::EngineConfig cmp_cfg = radix_cfg;
    cmp_cfg.reorder_mode = ReorderMode::kComparison;

    core::RealTimeEngine a(radix_cfg, 100);
    core::RealTimeEngine b(cmp_cfg, 100);
    for (std::uint64_t k = 1; k <= 6; ++k) {
        EdgeBatch batch(k, random_edges(2000, 500 + k, 0.15, 400));
        a.ingest(batch);
        b.ingest(batch);
    }
    EXPECT_TRUE(a.graph().same_topology(b.graph()));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReorderModeEngineTest,
    ::testing::Values(core::UpdatePolicy::kBaseline,
                      core::UpdatePolicy::kAlwaysReorder,
                      core::UpdatePolicy::kAlwaysReorderUsc,
                      core::UpdatePolicy::kAbr,
                      core::UpdatePolicy::kAbrUsc,
                      core::UpdatePolicy::kAbrUscHau));

TEST(ReorderModeSim, ModeledCyclesBitIdenticalAcrossModes)
{
    // The host reorder algorithm must be invisible to the timing model:
    // identical reorderings, identical charge_sort accounting, identical
    // per-batch cycles.  Guards the "figures unchanged" property.
    core::EngineConfig radix_cfg;
    radix_cfg.policy = core::UpdatePolicy::kAbrUscHau;
    radix_cfg.oca.enabled = true;
    radix_cfg.reorder_mode = ReorderMode::kRadix;
    core::EngineConfig cmp_cfg = radix_cfg;
    cmp_cfg.reorder_mode = ReorderMode::kComparison;

    sim::SimEngine a(radix_cfg, sim::MachineParams{}, sim::SwCostParams{},
                      sim::HauCostParams{}, 400);
    sim::SimEngine b(cmp_cfg, sim::MachineParams{}, sim::SwCostParams{},
                      sim::HauCostParams{}, 400);
    for (std::uint64_t k = 1; k <= 8; ++k) {
        EdgeBatch batch(k, random_edges(3000, 900 + k, 0.1, 400));
        const core::BatchReport ra = a.ingest(batch);
        const core::BatchReport rb = b.ingest(batch);
        EXPECT_EQ(ra.update.cycles, rb.update.cycles) << "batch " << k;
        EXPECT_EQ(ra.reordered, rb.reordered) << "batch " << k;
    }
}

// ------------------------------------------------------- flat weight table
TEST(FlatWeightTable, AccumulatesAndTakes)
{
    FlatWeightTable t;
    t.reset(4);
    t.add(7, 1.0f);
    t.add(9, 2.0f);
    t.add(7, 0.5f); // duplicate accumulates
    EXPECT_EQ(t.size(), 2u);

    Weight w = 0.0f;
    EXPECT_TRUE(t.drain(7, &w));
    EXPECT_FLOAT_EQ(w, 1.5f);
    EXPECT_FALSE(t.drain(7, &w)); // already taken
    EXPECT_FALSE(t.drain(42, &w)); // never inserted
    EXPECT_EQ(t.size(), 1u);

    // Remaining entries iterate in insertion order, skipping taken ones.
    std::vector<VertexId> keys;
    t.for_each([&](VertexId k, Weight) { keys.push_back(k); });
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], 9u);
}

TEST(FlatWeightTable, ResetClearsLogically)
{
    FlatWeightTable t;
    t.reset(8);
    for (VertexId v = 0; v < 8; ++v) {
        t.add(v, 1.0f);
    }
    t.reset(2); // new epoch: previous entries must be invisible
    EXPECT_TRUE(t.empty());
    Weight w = 0.0f;
    EXPECT_FALSE(t.drain(3, &w));
    t.add(3, 4.0f);
    EXPECT_TRUE(t.drain(3, &w));
    EXPECT_FLOAT_EQ(w, 4.0f);
}

TEST(FlatWeightTable, MatchesUnorderedMapOnRandomRuns)
{
    FlatWeightTable t;
    const auto edges = random_edges(5000, 11, 0.0, 64); // heavy duplication
    t.reset(edges.size());
    std::unordered_map<VertexId, Weight> ref;
    for (const StreamEdge& e : edges) {
        t.add(e.dst, e.weight);
        ref[e.dst] += e.weight;
    }
    EXPECT_EQ(t.size(), ref.size());
    std::size_t seen = 0;
    t.for_each([&](VertexId k, Weight w) {
        ASSERT_TRUE(ref.count(k));
        EXPECT_FLOAT_EQ(w, ref[k]);
        ++seen;
    });
    EXPECT_EQ(seen, ref.size());
}

// ----------------------------------------------- steady-state allocations
class SteadyStateAllocTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SteadyStateAllocTest, RadixReorderIsAllocationFree)
{
    const std::size_t n = GetParam();
    ThreadPool& pool = default_pool();
    Reorderer radix(ReorderMode::kRadix);
    // Key space > 2^16 so even the multi-pass path must stay clean.
    const auto edges = random_edges(n, 5, 0.1, 100000);

    radix.reorder(edges, pool); // grow the arena
    radix.reorder(edges, pool); // confirm shape is stable

    set_alloc_tracking(true);
    radix.reorder(edges, pool);
    set_alloc_tracking(false);
    EXPECT_EQ(tracked_alloc_count(), 0u)
        << "steady-state radix reorder touched the allocator";
}

TEST_P(SteadyStateAllocTest, WiderKeyRangeGrowsTheArenaOnce)
{
    const std::size_t n = GetParam();
    ThreadPool& pool = default_pool();
    Reorderer radix(ReorderMode::kRadix);
    const auto narrow = random_edges(n, 5, 0.1, 1u << 12);
    auto wide = random_edges(n, 6, 0.1, 1u << 24);
    wide.back().src = (1u << 24) - 1; // 24-bit keys: more passes, wider digit

    radix.reorder(narrow, pool); // grow the arena
    radix.reorder(narrow, pool);
    radix.reorder(wide, pool); // may grow it again, once

    set_alloc_tracking(true);
    radix.reorder(wide, pool);
    radix.reorder(narrow, pool);
    set_alloc_tracking(false);
    EXPECT_EQ(tracked_alloc_count(), 0u)
        << "reorder after the key range widened touched the allocator";
}

INSTANTIATE_TEST_SUITE_P(Sizes, SteadyStateAllocTest,
                         ::testing::Values(100, 20000));

} // namespace
} // namespace igs::stream
