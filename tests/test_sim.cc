/**
 * @file
 * Tests for the timing substrate: cache model, NoC, virtual execution
 * scheduler, the simulated update runner (determinism + equivalence with
 * the real kernels), and the HAU engine.
 */
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "sim/cache.h"
#include "sim/exec_sim.h"
#include "sim/hau.h"
#include "sim/machine.h"
#include "sim/noc.h"
#include "sim/sim_context.h"
#include "sim/update_runner.h"
#include "stream/reorder.h"
#include "stream/update_context.h"
#include "stream/updaters.h"

namespace igs::sim {
namespace {

// ---------------------------------------------------------------- cache
TEST(Cache, HitAfterFill)
{
    Cache c(1024, 2, 64); // 16 lines, 2-way, 8 sets
    EXPECT_FALSE(c.lookup(100));
    c.fill(100);
    EXPECT_TRUE(c.lookup(100));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(1024, 2, 64); // 8 sets: lines with equal low bits collide
    // Three lines mapping to set 0 in a 2-way cache.
    c.fill(0);
    c.fill(8);
    EXPECT_TRUE(c.lookup(0)); // 0 becomes MRU
    const LineAddr evicted = c.fill(16);
    EXPECT_EQ(evicted, 8u); // LRU victim
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(16));
    EXPECT_FALSE(c.contains(8));
}

TEST(Cache, FillOfResidentLineEvictsNothing)
{
    Cache c(1024, 2, 64);
    c.fill(3);
    EXPECT_EQ(c.fill(3), ~0ull);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(1024, 2, 64);
    c.fill(5);
    c.invalidate(5);
    EXPECT_FALSE(c.contains(5));
}

TEST(CoreCacheHierarchy, FillsBothLevels)
{
    MachineParams m;
    CoreCacheHierarchy cc(m);
    EXPECT_FALSE(cc.hit_l1(7));
    EXPECT_FALSE(cc.hit_l2(7));
    cc.fill_private(7);
    EXPECT_TRUE(cc.hit_l1(7));
}

// ------------------------------------------------------------------ noc
TEST(Noc, HopsAreManhattanDistance)
{
    NocModel noc{MachineParams{}};
    EXPECT_EQ(noc.hops(0, 0), 0u);
    EXPECT_EQ(noc.hops(0, 3), 3u);   // same row
    EXPECT_EQ(noc.hops(0, 12), 3u);  // same column
    EXPECT_EQ(noc.hops(0, 15), 6u);  // opposite corner
    EXPECT_EQ(noc.hops(5, 10), 2u);
}

TEST(Noc, LatencyScalesWithDistance)
{
    NocModel noc{MachineParams{}};
    const Cycles near = noc.send(0, 1, 8, PacketClass::kData, 0);
    const Cycles far = noc.send(0, 15, 8, PacketClass::kData, 0);
    EXPECT_GT(far, near);
    EXPECT_EQ(noc.send(3, 3, 8, PacketClass::kData, 0), 1u); // local
}

TEST(Noc, TracksPerClassStats)
{
    NocModel noc{MachineParams{}};
    noc.send(0, 5, 8, PacketClass::kData, 10);
    noc.send(0, 5, 32, PacketClass::kTask, 10);
    noc.send(2, 7, 8, PacketClass::kTask, 10);
    EXPECT_EQ(noc.core_stats(PacketClass::kData)[0].packets, 1u);
    EXPECT_EQ(noc.core_stats(PacketClass::kTask)[0].packets, 1u);
    EXPECT_EQ(noc.core_stats(PacketClass::kTask)[2].packets, 1u);
    EXPECT_GT(noc.flits(PacketClass::kTask), 0u);
}

TEST(Noc, MultiFlitPacketsAddSerialization)
{
    NocModel noc{MachineParams{}};
    const Cycles small = noc.send(0, 1, 8, PacketClass::kData, 0);
    NocModel noc2{MachineParams{}};
    const Cycles big = noc2.send(0, 1, 128, PacketClass::kData, 0);
    EXPECT_GT(big, small);
}

// ------------------------------------------------------------- exec sim
TEST(ExecSim, SingleWorkerAccumulates)
{
    ExecSim ex(1, 10);
    ex.begin_task(10);
    ex.charge(5);
    ex.begin_task(10);
    ex.charge(5);
    EXPECT_EQ(ex.now(), 30u);
}

TEST(ExecSim, TasksSpreadAcrossWorkers)
{
    ExecSim ex(4, 10);
    for (int i = 0; i < 4; ++i) {
        ex.begin_task(0);
        ex.charge(100);
    }
    // Four equal tasks on four workers: makespan is one task.
    EXPECT_EQ(ex.now(), 100u);
    ex.end_phase();
    ex.begin_task(0);
    ex.charge(50);
    EXPECT_EQ(ex.now(), 150u);
}

TEST(ExecSim, LockSerializesCriticalSections)
{
    ExecSim ex(4, 4);
    // Four workers each grab the same lock for 100 cycles.
    double waited = 0.0;
    for (int i = 0; i < 4; ++i) {
        ex.begin_task(0);
        waited += ex.locked(2, 0, 100);
    }
    // Serialized: 100+200+300 cycles of waiting, makespan 400.
    EXPECT_EQ(ex.now(), 400u);
    EXPECT_DOUBLE_EQ(waited, 600.0);
    EXPECT_DOUBLE_EQ(ex.total_lock_wait(), 600.0);
}

TEST(ExecSim, DistinctLocksDoNotSerialize)
{
    ExecSim ex(4, 8);
    for (std::size_t i = 0; i < 4; ++i) {
        ex.begin_task(0);
        ex.locked(i, 0, 100);
    }
    EXPECT_EQ(ex.now(), 100u);
}

TEST(ExecSim, ChargeAllAdvancesEveryWorker)
{
    ExecSim ex(3, 1);
    ex.charge_all(500);
    ex.begin_task(0);
    ex.charge(10);
    EXPECT_EQ(ex.now(), 510u);
}

TEST(ExecSim, EnsureLockKeysGrows)
{
    ExecSim ex(2, 4);
    ex.ensure_lock_keys(1000);
    ex.begin_task(0);
    ex.locked(999, 0, 10); // must not crash
    EXPECT_GE(ex.now(), 10u);
}

// -------------------------------------------------------- update runner
stream::EdgeBatch
make_batch(std::uint64_t id, std::size_t n, std::uint64_t seed,
           double deletes = 0.0)
{
    gen::StreamModel m;
    m.num_vertices = 500;
    m.num_hubs = 10;
    m.hub_mass_dst = 0.3;
    m.delete_fraction = deletes;
    m.weighted = true;
    m.seed = seed;
    stream::EdgeBatch b;
    b.id = id;
    b.set_edges(gen::EdgeStreamGenerator(m).take(n));
    return b;
}

class RunnerModeTest : public ::testing::TestWithParam<UpdateMode> {};

TEST_P(RunnerModeTest, MatchesRealKernelState)
{
    const UpdateMode mode = GetParam();
    MachineParams machine;
    SwCostParams sw;
    HauCostParams hw;

    graph::AdjacencyList sim_graph(500);
    UpdateRunner runner(machine, sw, hw, 500);

    ThreadPool pool(4);
    stream::RealContext ctx(pool);
    graph::AdjacencyList real_graph(500);

    Cycles last = 0;
    for (std::uint64_t k = 1; k <= 3; ++k) {
        const auto batch = make_batch(k, 2000, 40 + k, 0.1);
        const auto stats = runner.run(sim_graph, batch, mode);
        EXPECT_GT(stats.cycles, 0u);
        last = stats.cycles;

        // Reference: real baseline kernel (all kernels are equivalent).
        stream::apply_batch_baseline(real_graph, batch, ctx);
    }
    (void)last;
    EXPECT_TRUE(sim_graph.same_topology(real_graph));
}

/** Rows of `a` and `b` that differ in length, order, id or weight bits. */
std::size_t
rows_differing(const graph::AdjacencyList& a, const graph::AdjacencyList& b)
{
    std::size_t differing = 0;
    for (VertexId v = 0; v < a.num_vertices(); ++v) {
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const auto& ra = a.edges(v, dir);
            const auto& rb = b.edges(v, dir);
            bool same = ra.size() == rb.size();
            for (std::size_t i = 0; same && i < ra.size(); ++i) {
                same = ra[i].id == rb[i].id &&
                       std::bit_cast<std::uint32_t>(ra[i].weight) ==
                           std::bit_cast<std::uint32_t>(rb[i].weight);
            }
            differing += same ? 0 : 1;
        }
    }
    return differing;
}

TEST_P(RunnerModeTest, RowsMatchMatchingRealKernelInOrder)
{
    // The simulator runs the real kernels' code on the real store, so on a
    // one-worker pool the matching real kernel leaves every row identical
    // entry by entry — append order and weight bits included.
    const UpdateMode mode = GetParam();
    UpdateRunner runner(MachineParams{}, SwCostParams{}, HauCostParams{}, 500);
    graph::AdjacencyList sim_graph(500);

    ThreadPool pool(1);
    stream::RealContext ctx(pool);
    stream::Reorderer reorderer;
    graph::AdjacencyList real_graph(500);

    for (std::uint64_t k = 1; k <= 3; ++k) {
        const auto batch = make_batch(k, 2000, 40 + k, 0.1);
        const stream::ReorderedBatch& rb =
            reorderer.reorder(batch.edges(), pool);
        runner.run(sim_graph, batch, mode, nullptr, &rb);
        switch (mode) {
          case UpdateMode::kBaseline:
          case UpdateMode::kHau:
            stream::apply_batch_baseline(real_graph, batch, ctx);
            break;
          case UpdateMode::kReordered:
            stream::apply_batch_reordered(real_graph, batch, rb, ctx);
            break;
          case UpdateMode::kReorderedUsc:
            stream::apply_batch_usc(real_graph, batch, rb, ctx);
            break;
        }
    }
    EXPECT_EQ(rows_differing(sim_graph, real_graph), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, RunnerModeTest,
                         ::testing::Values(UpdateMode::kBaseline,
                                           UpdateMode::kReordered,
                                           UpdateMode::kReorderedUsc,
                                           UpdateMode::kHau));

TEST(UpdateRunner, DeterministicCycles)
{
    auto run_once = [](UpdateMode mode) {
        MachineParams machine;
        SwCostParams sw;
        HauCostParams hw;
        graph::AdjacencyList g(500);
        UpdateRunner runner(machine, sw, hw, 500);
        Cycles total = 0;
        for (std::uint64_t k = 1; k <= 3; ++k) {
            total += runner.run(g, make_batch(k, 1500, 7 + k), mode).cycles;
        }
        return total;
    };
    for (auto mode : {UpdateMode::kBaseline, UpdateMode::kReordered,
                      UpdateMode::kReorderedUsc, UpdateMode::kHau}) {
        EXPECT_EQ(run_once(mode), run_once(mode)) << to_string(mode);
    }
}

TEST(UpdateRunner, StatsCountOperations)
{
    MachineParams machine;
    SwCostParams sw;
    HauCostParams hw;
    graph::AdjacencyList g(500);
    UpdateRunner runner(machine, sw, hw, 500);
    const auto batch = make_batch(1, 1000, 3);
    const auto stats = runner.run(g, batch, UpdateMode::kBaseline);
    // 1000 streamed edges -> 2000 locked sub-operations.
    EXPECT_EQ(stats.lock_acquisitions, 2000u);
    EXPECT_EQ(stats.inserts + stats.weight_updates, 2000u);
}

TEST(UpdateRunner, ReorderingChargesSorts)
{
    MachineParams machine;
    SwCostParams sw;
    HauCostParams hw;
    graph::AdjacencyList g(500);
    UpdateRunner runner(machine, sw, hw, 500);
    const auto stats =
        runner.run(g, make_batch(1, 1000, 3), UpdateMode::kReordered);
    EXPECT_EQ(stats.sorted_edges, 2000u); // two sorts of the batch
    EXPECT_GT(stats.runs, 0u);
}

// ------------------------------------------------------------------ hau
TEST(Hau, TasksHashOverWorkerCores)
{
    MachineParams machine;
    HauCostParams hw;
    HauSimulator hau(machine, hw);
    graph::AdjacencyList g(1000);
    stream::EdgeBatch batch;
    batch.id = 1;
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        const auto s = static_cast<VertexId>(rng.below(1000));
        auto d = static_cast<VertexId>(rng.below(1000));
        if (d == s) {
            d = (d + 1) % 1000;
        }
        batch.push_edge({s, d, 1.0f, false});
    }
    const auto stats = hau.run_batch(g, batch);
    EXPECT_EQ(stats.tasks, 6000u);
    // Core 0 hosts the master thread: no consumption there.
    EXPECT_EQ(stats.per_core[0].tasks, 0u);
    std::uint64_t total = 0;
    std::uint64_t mx = 0;
    std::uint64_t mn = ~0ull;
    for (std::uint32_t c = 1; c < machine.num_cores; ++c) {
        total += stats.per_core[c].tasks;
        mx = std::max(mx, stats.per_core[c].tasks);
        mn = std::min(mn, stats.per_core[c].tasks);
    }
    EXPECT_EQ(total, 6000u);
    // Hash distribution is near-uniform (paper Fig 19: ~1-3% spread).
    EXPECT_LT(static_cast<double>(mx - mn), 0.25 * 6000.0 / 15.0);
}

TEST(Hau, LocalTileServesAlmostAllLines)
{
    MachineParams machine;
    HauCostParams hw;
    HauSimulator hau(machine, hw);
    graph::AdjacencyList g(2000);
    for (std::uint64_t k = 1; k <= 3; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        gen::StreamModel m;
        m.num_vertices = 2000;
        m.seed = k;
        batch.set_edges(gen::EdgeStreamGenerator(m).take(5000));
        const auto stats = hau.run_batch(g, batch);
        std::uint64_t local = 0;
        std::uint64_t lines = 0;
        for (const auto& cs : stats.per_core) {
            local += cs.local_lines;
            lines += cs.lines;
        }
        ASSERT_GT(lines, 0u);
        // Paper Fig 20: 98-99% of edge-data lines hit the local tile.
        EXPECT_GT(static_cast<double>(local) / static_cast<double>(lines),
                  0.97);
    }
}

TEST(Hau, InsertionsBeforeDeletionsWithinBatch)
{
    MachineParams machine;
    HauCostParams hw;
    HauSimulator hau(machine, hw);
    graph::AdjacencyList g(10);
    stream::EdgeBatch batch;
    batch.id = 1;
    // Delete arrives *before* the insert in stream order; the ordering
    // rule still applies the insert first, so the delete removes it.
    batch.set_edges({{1, 2, 1.0f, true}, {1, 2, 1.0f, false}});
    const auto stats = hau.run_batch(g, batch);
    EXPECT_EQ(stats.inserts, 2u);  // out + in entries
    EXPECT_EQ(stats.removes, 2u);
    EXPECT_EQ(g.degree(1, Direction::kOut), 0u);
}

TEST(Hau, TaskTrafficRaisesPacketLatencyOnlyModestly)
{
    MachineParams machine;
    HauCostParams hw;
    HauSimulator hau(machine, hw);
    graph::AdjacencyList g(5000);
    gen::StreamModel m;
    m.num_vertices = 5000;
    m.seed = 77;
    stream::EdgeBatch batch;
    batch.id = 1;
    batch.set_edges(gen::EdgeStreamGenerator(m).take(20000));
    hau.run_batch(g, batch);
    // The counterfactual NoC saw the same data packets without the task
    // class; with tasks the data latency may rise, but only modestly
    // (paper Fig 20: <10% average increase).
    const auto& with_tasks = hau.noc().core_stats(PacketClass::kData);
    const auto& without = hau.noc_without_tasks().core_stats(PacketClass::kData);
    double a = 0.0;
    double b = 0.0;
    int cores = 0;
    for (std::size_t c = 0; c < with_tasks.size(); ++c) {
        if (without[c].packets > 0) {
            a += with_tasks[c].average_latency();
            b += without[c].average_latency();
            ++cores;
        }
    }
    ASSERT_GT(cores, 0);
    EXPECT_LT(a / b, 1.15);
}

// ------------------------------------------------------------- contexts
TEST(SimContext, PhantomLockWaitsAreBounded)
{
    // Regression test for the scheduler-divergence bug: uncontended
    // workloads must see (near-)zero lock waiting.
    ExecSim ex(16, 48000);
    SwCostParams sw;
    SimContext ctx(ex, sw);
    graph::AdjacencyList g(24000);
    Rng rng(3);
    ctx.for_tasks(20000, 256, [&](std::size_t) {
        const auto v = static_cast<VertexId>(rng.below(24000));
        const auto t = static_cast<VertexId>(rng.below(24000));
        ctx.locked_apply(g, v, Direction::kOut, [&] {
            return g.apply_insert(v, {t, 1.0f}, Direction::kOut);
        });
    });
    const auto stats = ctx.stats();
    // Waits below 1% of total machine-cycles.
    EXPECT_LT(stats.lock_wait_cycles,
              0.01 * 16.0 * static_cast<double>(stats.cycles));
}

} // namespace
} // namespace igs::sim

// Additional coverage: NoC accounting and cross-structure timing checks.
namespace igs::sim {
namespace {

TEST(Noc, FlitsConservedAcrossClasses)
{
    NocModel noc{MachineParams{}};
    const std::uint64_t before =
        noc.flits(PacketClass::kData) + noc.flits(PacketClass::kTask);
    EXPECT_EQ(before, 0u);
    noc.send(0, 15, 64, PacketClass::kData, 5);
    noc.send(1, 2, 32, PacketClass::kTask, 5);
    EXPECT_EQ(noc.flits(PacketClass::kData), 2u); // 64B = 2 flits
    EXPECT_EQ(noc.flits(PacketClass::kTask), 1u);
    EXPECT_GT(noc.mean_link_utilization(), 0.0);
}

TEST(ExecSim, LongerScansCostMore)
{
    SwCostParams sw;
    auto cost_of = [&](std::uint32_t degree) {
        ExecSim ex(16, 100);
        SimContext ctx(ex, sw);
        graph::AdjacencyList g(50);
        for (std::uint32_t t = 0; t < degree; ++t) {
            g.apply_insert(0, {t + 1, 1.0f}, Direction::kOut);
        }
        ctx.for_tasks(1, 1, [&](std::size_t) {
            ctx.locked_apply(g, 0, Direction::kOut, [&] {
                return g.apply_insert(0, {49, 1.0f}, Direction::kOut);
            });
        });
        return ctx.stats().cycles;
    };
    EXPECT_GT(cost_of(40), cost_of(4));
}

TEST(UpdateRunner, BatchesAccumulateAcrossCalls)
{
    MachineParams machine;
    SwCostParams sw;
    HauCostParams hw;
    graph::AdjacencyList g(500);
    UpdateRunner runner(machine, sw, hw, 500);
    const auto b1 = make_batch(1, 500, 1);
    const auto s1 = runner.run(g, b1, UpdateMode::kBaseline);
    const auto b2 = make_batch(2, 500, 2);
    const auto s2 = runner.run(g, b2, UpdateMode::kBaseline);
    // Second batch scans longer arrays: at least as many probes.
    EXPECT_GE(s2.probes + 100, s1.probes);
    // Each streamed edge contributes an out-entry and an in-entry;
    // num_edges counts out-entries only.
    EXPECT_EQ(g.num_edges() * 2, s1.inserts + s2.inserts);
}

TEST(Hau, LastStatsExposedThroughRunner)
{
    MachineParams machine;
    SwCostParams sw;
    HauCostParams hw;
    graph::AdjacencyList g(500);
    UpdateRunner runner(machine, sw, hw, 500);
    EXPECT_FALSE(runner.last_hau_stats().has_value());
    runner.run(g, make_batch(1, 200, 3), UpdateMode::kHau);
    ASSERT_TRUE(runner.last_hau_stats().has_value());
    EXPECT_EQ(runner.last_hau_stats()->tasks, 400u);
}

} // namespace
} // namespace igs::sim
