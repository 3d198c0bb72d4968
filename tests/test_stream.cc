/**
 * @file
 * Tests for the streaming layer: batch statistics, reordering, and the
 * three software update kernels — in particular the cross-kernel
 * equivalence property (all paths produce the same final graph).
 */
#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/degree_aware_hash.h"
#include "graph/hybrid_store.h"
#include "sim/exec_sim.h"
#include "sim/machine.h"
#include "sim/sim_context.h"
#include "stream/batch.h"
#include "stream/reorder.h"
#include "stream/update_context.h"
#include "stream/updaters.h"
#include "test_support.h"

namespace igs::stream {
namespace {

std::vector<StreamEdge>
random_edges(std::size_t n, std::uint64_t seed, double delete_fraction = 0.0,
             std::uint32_t vertices = 300)
{
    gen::StreamModel m;
    m.num_vertices = vertices;
    m.num_hubs = 8;
    m.hub_mass_dst = 0.2;
    m.delete_fraction = delete_fraction;
    m.weighted = true;
    m.seed = seed;
    return gen::EdgeStreamGenerator(m).take(n);
}

// ----------------------------------------------------------- batch stats
TEST(BatchStats, CountsDegreesAndUniques)
{
    std::vector<StreamEdge> edges{
        {0, 1, 1.0f, false}, {0, 2, 1.0f, false}, {3, 1, 1.0f, false}};
    const auto s = compute_batch_degree_stats(edges);
    EXPECT_EQ(s.max_out_degree, 2u);
    EXPECT_EQ(s.max_in_degree, 2u);
    EXPECT_EQ(s.unique_sources, 2u);
    EXPECT_EQ(s.unique_destinations, 2u);
    EXPECT_EQ(s.out_degree_histogram.at(2), 1u);
    EXPECT_EQ(s.out_degree_histogram.at(1), 1u);
}

// -------------------------------------------------------------- reorder
TEST(Reorder, SortsBySourceAndDestinationStably)
{
    std::vector<StreamEdge> edges{{2, 5, 1.0f, false},
                                  {1, 6, 2.0f, false},
                                  {2, 4, 3.0f, false},
                                  {1, 6, 4.0f, false}};
    const auto rb = reorder_batch(edges, default_pool());
    ASSERT_EQ(rb.by_src.edges.size(), 4u);
    // Sorted by src; ties keep arrival order (stability).
    EXPECT_EQ(rb.by_src.edges[0].src, 1u);
    EXPECT_FLOAT_EQ(rb.by_src.edges[0].weight, 2.0f);
    EXPECT_FLOAT_EQ(rb.by_src.edges[1].weight, 4.0f);
    EXPECT_EQ(rb.by_src.edges[2].src, 2u);
    EXPECT_FLOAT_EQ(rb.by_src.edges[2].weight, 1.0f);
    // Runs: vertex 1 spans [0,2), vertex 2 spans [2,4).
    ASSERT_EQ(rb.by_src.runs.size(), 2u);
    EXPECT_EQ(rb.by_src.runs[0].vertex, 1u);
    EXPECT_EQ(rb.by_src.runs[0].size(), 2u);
    EXPECT_EQ(rb.by_src.runs[1].vertex, 2u);
    // Destination view.
    ASSERT_EQ(rb.by_dst.runs.size(), 3u);
    EXPECT_EQ(rb.by_dst.runs[0].vertex, 4u);
}

TEST(Reorder, RunsPartitionTheBatch)
{
    const auto edges = random_edges(5000, 21);
    const auto rb = reorder_batch(edges, default_pool());
    for (const auto& dir_view : {rb.by_src, rb.by_dst}) {
        std::size_t covered = 0;
        std::uint32_t prev_end = 0;
        for (const auto& run : dir_view.runs) {
            EXPECT_EQ(run.begin, prev_end);
            EXPECT_GT(run.end, run.begin);
            covered += run.size();
            prev_end = run.end;
        }
        EXPECT_EQ(covered, edges.size());
    }
}

TEST(Reorder, EmptyBatch)
{
    const auto rb = reorder_batch({}, default_pool());
    EXPECT_TRUE(rb.by_src.runs.empty());
    EXPECT_TRUE(rb.by_dst.runs.empty());
}

// ------------------------------------------------------------ oca probe
TEST(OcaProbe, RatioCountsOnlyAdjacentBatchOverlap)
{
    OcaProbe p;
    p.note(4, 5); // previous batch -> overlap
    p.note(2, 5); // older batch -> no overlap
    p.note(0, 5); // never seen -> no overlap
    EXPECT_EQ(p.unique_nodes(), 3u);
    EXPECT_EQ(p.overlapping_nodes(), 1u);
    EXPECT_NEAR(p.ratio(), 1.0 / 3.0, 1e-12);
}

TEST(TouchSource, CountsEachSourceOncePerBatch)
{
    graph::AdjacencyList g(4);
    OcaProbe p;
    touch_source(g, 1, 7, &p);
    touch_source(g, 1, 7, &p); // same batch: no double count
    touch_source(g, 2, 7, &p);
    EXPECT_EQ(p.unique_nodes(), 2u);
    touch_source(g, 1, 8, &p); // next batch: counts and overlaps
    EXPECT_EQ(p.unique_nodes(), 3u);
    EXPECT_EQ(p.overlapping_nodes(), 1u);
}

// ----------------------------------------------- kernel building blocks
TEST(Updaters, BaselineAppliesInsertsAndDeletes)
{
    graph::AdjacencyList g(10);
    RealContext ctx;
    EdgeBatch b;
    b.id = 1;
    b.set_edges({{0, 1, 2.0f, false},
               {0, 2, 1.0f, false},
               {0, 1, 3.0f, false},  // duplicate: accumulate
               {0, 2, 0.0f, true}});  // delete in same batch
    apply_batch_baseline(g, b, ctx);
    EXPECT_EQ(g.degree(0, Direction::kOut), 1u);
    EXPECT_FLOAT_EQ(g.edges(0, Direction::kOut)[0].weight, 5.0f);
    EXPECT_EQ(g.degree(1, Direction::kIn), 1u);
    EXPECT_EQ(g.degree(2, Direction::kIn), 0u);
    EXPECT_EQ(g.latest_bid(0), 1u);
}

/**
 * The central correctness property: every software update path produces
 * the same final graph, with and without deletions, across seeds and
 * batch sizes, under real multithreaded execution.
 */
struct EquivalenceCase {
    std::uint64_t seed;
    std::size_t batch_size;
    double delete_fraction;
};

class KernelEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(KernelEquivalenceTest, AllPathsAgree)
{
    const auto [seed, batch_size, delete_fraction] = GetParam();
    constexpr std::size_t kBatches = 5;
    ThreadPool pool(4);
    RealContext ctx(pool);

    graph::AdjacencyList baseline(300);
    graph::AdjacencyList reordered(300);
    graph::AdjacencyList usc(300);

    gen::StreamModel m;
    m.num_vertices = 300;
    m.num_hubs = 8;
    m.hub_mass_dst = 0.25;
    m.delete_fraction = delete_fraction;
    m.weighted = true;
    m.seed = seed;

    for (std::size_t k = 0; k < kBatches; ++k) {
        // All three paths see identical batches.
        gen::EdgeStreamGenerator g(m);
        std::vector<StreamEdge> all = g.take(batch_size * kBatches);
        EdgeBatch batch;
        batch.id = k + 1;
        batch.set_edges(std::vector<StreamEdge>(
            all.begin() + static_cast<long>(k * batch_size),
            all.begin() + static_cast<long>((k + 1) * batch_size)));

        apply_batch_baseline(baseline, batch, ctx);
        const auto rb = reorder_batch(batch.edges(), pool);
        apply_batch_reordered(reordered, batch, rb, ctx);
        apply_batch_usc(usc, batch, rb, ctx);
    }

    EXPECT_TRUE(baseline.same_topology(reordered));
    EXPECT_TRUE(baseline.same_topology(usc));
    EXPECT_EQ(baseline.num_edges(), reordered.num_edges());
    EXPECT_EQ(baseline.num_edges(), usc.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KernelEquivalenceTest,
    ::testing::Values(EquivalenceCase{1, 100, 0.0},
                      EquivalenceCase{2, 100, 0.2},
                      EquivalenceCase{3, 1000, 0.0},
                      EquivalenceCase{4, 1000, 0.1},
                      EquivalenceCase{5, 3000, 0.3},
                      EquivalenceCase{6, 500, 0.05},
                      EquivalenceCase{7, 2000, 0.0},
                      EquivalenceCase{8, 2500, 0.25}));

// ------------------------------------------- USC one-edge runs, bit-exact

/**
 * The USC kernel's per-run body as it was before one-edge insert runs
 * skipped the table: every run coalesces through its worker's table.  The
 * bit-exact reference of the one-edge path in detail::apply_usc_direction
 * (KernelEquivalenceTest's same_topology ignores row order and allows a
 * 1e-4 weight tolerance, so it cannot tell an append order or a float sum
 * apart).
 */
template <typename Graph, typename Ctx>
void
usc_direction_through_table(Graph& g, const ReorderedDirection& rd,
                            Direction dir, std::uint64_t bid, Ctx& ctx)
{
    ctx.charge_pass_setup();
    ctx.for_worker_tasks(rd.runs.size(), kRunChunk,
                         [&](std::size_t worker, std::size_t ri) {
        const VertexRun& run = rd.runs[ri];
        ctx.charge_run_overhead();
        if (dir == Direction::kOut) {
            touch_source(g, run.vertex, bid, nullptr);
        }
        FlatWeightTable& table = ctx.usc_table(worker);
        table.reset(run.size());
        std::size_t num_inserts = 0;
        for (std::uint32_t i = run.begin; i < run.end; ++i) {
            const StreamEdge& e = rd.edges[i];
            if (e.is_delete) {
                continue;
            }
            table.add(dir == Direction::kOut ? e.dst : e.src, e.weight);
            ++num_inserts;
        }
        ctx.charge_hash_build(num_inserts);
        if (!table.empty()) {
            const std::size_t len_before = g.degree(run.vertex, dir);
            const std::size_t appended =
                g.apply_coalesced(run.vertex, dir, table);
            ctx.charge_coalesced_scan(len_before, len_before, appended);
        }
        for (std::uint32_t i = run.begin; i < run.end; ++i) {
            const StreamEdge& e = rd.edges[i];
            if (!e.is_delete) {
                continue;
            }
            const VertexId nbr = dir == Direction::kOut ? e.dst : e.src;
            ctx.apply([&] { return g.apply_remove(run.vertex, nbr, dir); });
        }
    });
    ctx.end_phase();
}

template <typename Graph, typename Ctx>
void
usc_batch_through_table(Graph& g, const EdgeBatch& batch,
                        const ReorderedBatch& rb, Ctx& ctx)
{
    ctx.charge_sort(rb.batch_size);
    ctx.charge_sort(rb.batch_size);
    usc_direction_through_table(g, rb.by_src, Direction::kOut, batch.id, ctx);
    usc_direction_through_table(g, rb.by_dst, Direction::kIn, batch.id, ctx);
}

/** The generated part of a one-edge stream draws vertices below this;
 *  the scripted cases use the eleven ids from it up. */
constexpr VertexId kGenVertices = 3000;
constexpr std::size_t kOneEdgeVertices = kGenVertices + 11;

/**
 * Eight batches of mostly one-edge runs — 1,500 generated edges over
 * 3,000 vertices with a few hubs, in-band deletions and fractional
 * weights — plus scripted edges on vertices of their own: a one-edge
 * insert that hits an existing edge in both directions, a one-edge delete,
 * a vertex with runs in both directions, and one-edge hits in an inline
 * row at a slot past 0, in a sorted row and in a hashed row (under
 * tight_tuning), then a one-edge miss into the hashed row.
 */
std::vector<EdgeBatch>
one_edge_stream(std::uint64_t seed)
{
    gen::StreamModel m;
    m.num_vertices = kGenVertices;
    m.num_hubs = 6;
    m.hub_mass_dst = 0.25;
    m.delete_fraction = 0.1;
    m.weighted = true;
    m.seed = seed;
    gen::EdgeStreamGenerator gen(m);

    const VertexId s = kGenVertices;
    std::vector<std::vector<StreamEdge>> scripted(3);
    // Batch 1 lays the rows down; s has an out-run and an in-run.
    scripted[0] = {{s, s + 1, 0.7f, false},     {s + 2, s, 1.3f, false},
                   {s + 3, s + 4, 2.5f, false}, {s + 5, s + 6, 0.25f, false},
                   {s + 5, s + 7, 0.5f, false}, {s + 5, s + 8, 0.75f, false}};
    for (VertexId t = 0; t < 6; ++t) { // sorted tier
        scripted[0].push_back({s + 9, t, 0.1f * static_cast<float>(t + 1),
                               false});
    }
    for (VertexId t = 10; t < 30; ++t) { // hashed tier
        scripted[0].push_back({s + 10, t, 0.3f, false});
    }
    // Batch 2: one-edge runs over those rows.
    scripted[1] = {{s, s + 1, 0.1f, false},      // hit, both directions
                   {s + 3, s + 4, 0.0f, true},   // one-edge delete
                   {s + 5, s + 8, 0.2f, false},  // inline hit at slot 2
                   {s + 9, 3, 0.4f, false},      // sorted-tier hit
                   {s + 10, 17, 0.6f, false}};   // hashed-tier hit
    // Batch 3: a one-edge miss into the hashed row; the delete undone.
    scripted[2] = {{s + 10, 40, 0.8f, false}, {s + 3, s + 4, 1.1f, false}};

    std::vector<EdgeBatch> batches;
    for (std::size_t k = 0; k < 8; ++k) {
        std::vector<StreamEdge> edges = gen.take(1500);
        if (k < scripted.size()) {
            edges.insert(edges.end(), scripted[k].begin(), scripted[k].end());
        }
        batches.emplace_back(k + 1, std::move(edges));
    }
    return batches;
}

/** One-edge insert runs of a reordered batch, both directions. */
std::size_t
one_edge_insert_runs(const ReorderedBatch& rb)
{
    std::size_t n = 0;
    for (const ReorderedDirection* d : {&rb.by_src, &rb.by_dst}) {
        for (const VertexRun& r : d->runs) {
            n += r.size() == 1 && !d->edges[r.begin].is_delete;
        }
    }
    return n;
}

/**
 * Row order, ids, weight bits, change marks (taken, so each batch's marks
 * are compared afresh) and the edge count of `got` equal `want`'s.
 */
template <typename Store>
void
expect_rows_bit_identical(Store& got, Store& want, std::uint64_t bid)
{
    SCOPED_TRACE("batch " + std::to_string(bid));
    ASSERT_EQ(got.num_vertices(), want.num_vertices());
    EXPECT_EQ(got.num_edges(), want.num_edges());
    const auto same_entry = [](const Neighbor& a, const Neighbor& b) {
        return a.id == b.id && std::bit_cast<std::uint32_t>(a.weight) ==
                                   std::bit_cast<std::uint32_t>(b.weight);
    };
    std::size_t mismatches = 0;
    for (VertexId v = 0; v < want.num_vertices(); ++v) {
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const auto& a = got.edges(v, dir);
            const auto& b = want.edges(v, dir);
            const bool same_row =
                a.size() == b.size() &&
                std::equal(a.begin(), a.end(), b.begin(), same_entry);
            const std::uint32_t mark_got = got.take_change_mark(v, dir);
            const std::uint32_t mark_want = want.take_change_mark(v, dir);
            if ((!same_row || mark_got != mark_want) && ++mismatches <= 3) {
                ADD_FAILURE() << "vertex " << v << " dir " << to_string(dir)
                              << (same_row ? "" : ": rows differ")
                              << "; change mark " << mark_got << " vs "
                              << mark_want;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

/**
 * The one-edge path under RealContext against the table path: the same
 * rows bit for bit, change marks, edge count and telemetry (HybridStore's
 * probe histograms and promotion counters) after every batch.
 */
template <typename Store, typename MakeStore>
void
expect_real_one_edge_path_exact(MakeStore make, std::size_t threads,
                                std::uint64_t seed)
{
    SCOPED_TRACE(testutil::seed_trace(seed) + ", " +
                 std::to_string(threads) + " workers");
    ThreadPool pool(threads);
    UscScratch want_usc;
    UscScratch got_usc;
    RealContext want_ctx(pool, &want_usc);
    RealContext got_ctx(pool, &got_usc);
    Store want = make();
    Store got = make();
    telemetry::Registry& reg = telemetry::Registry::global();
    std::size_t one_edge_runs = 0;
    std::size_t runs = 0;
    for (const EdgeBatch& b : one_edge_stream(seed)) {
        const ReorderedBatch rb = reorder_batch(b.edges(), pool);
        one_edge_runs += one_edge_insert_runs(rb);
        runs += rb.by_src.runs.size() + rb.by_dst.runs.size();
        reg.reset_values();
        usc_batch_through_table(want, b, rb, want_ctx);
        const std::string want_metrics = reg.to_json(0);
        reg.reset_values();
        apply_batch_usc(got, b, rb, got_ctx);
        EXPECT_EQ(reg.to_json(0), want_metrics) << "batch " << b.id;
        expect_rows_bit_identical(got, want, b.id);
    }
    // The stream is what the test claims: mostly one-edge insert runs.
    EXPECT_GT(2 * one_edge_runs, runs);
}

TEST(UscOneEdgeRun, RealPathMatchesTablePathBitForBit)
{
    for (const std::uint64_t seed : testutil::harness_seeds({1, 2, 3})) {
        for (const std::size_t threads : {1, 4}) {
            expect_real_one_edge_path_exact<graph::AdjacencyList>(
                [] { return graph::AdjacencyList(kOneEdgeVertices); },
                threads, seed);
            expect_real_one_edge_path_exact<graph::HybridStore>(
                [] {
                    return graph::HybridStore(kOneEdgeVertices,
                                              testutil::tight_tuning());
                },
                threads, seed);
        }
    }
}

/**
 * The one-edge path under SimContext against the table path: the same
 * UpdateStats (modeled cycles included) and the same rows.
 */
template <typename Store, typename MakeStore>
void
expect_sim_one_edge_path_exact(MakeStore make, std::uint64_t seed)
{
    SCOPED_TRACE(testutil::seed_trace(seed));
    const sim::MachineParams machine;
    const sim::SwCostParams costs;
    Store want = make();
    Store got = make();
    sim::ExecSim want_exec(machine.num_cores, want.num_vertices() * 2);
    sim::ExecSim got_exec(machine.num_cores, got.num_vertices() * 2);
    for (const EdgeBatch& b : one_edge_stream(seed)) {
        SCOPED_TRACE("batch " + std::to_string(b.id));
        const ReorderedBatch rb = reorder_batch(b.edges(), default_pool());
        sim::SimContext want_ctx(want_exec, costs);
        usc_batch_through_table(want, b, rb, want_ctx);
        sim::SimContext got_ctx(got_exec, costs);
        apply_batch_usc(got, b, rb, got_ctx);
        const UpdateStats w = want_ctx.stats();
        const UpdateStats g = got_ctx.stats();
        EXPECT_EQ(g.cycles, w.cycles);
        EXPECT_EQ(g.lock_wait_cycles, w.lock_wait_cycles);
        EXPECT_EQ(g.lock_acquisitions, w.lock_acquisitions);
        EXPECT_EQ(g.probes, w.probes);
        EXPECT_EQ(g.inserts, w.inserts);
        EXPECT_EQ(g.weight_updates, w.weight_updates);
        EXPECT_EQ(g.removes, w.removes);
        EXPECT_EQ(g.runs, w.runs);
        EXPECT_EQ(g.sorted_edges, w.sorted_edges);
        EXPECT_EQ(g.hash_build_edges, w.hash_build_edges);
        EXPECT_EQ(g.coalesced_scans, w.coalesced_scans);
        expect_rows_bit_identical(got, want, b.id);
    }
}

TEST(UscOneEdgeRun, SimPathChargesMatchTablePath)
{
    for (const std::uint64_t seed : testutil::harness_seeds({1, 2, 3})) {
        expect_sim_one_edge_path_exact<graph::AdjacencyList>(
            [] { return graph::AdjacencyList(kOneEdgeVertices); }, seed);
        expect_sim_one_edge_path_exact<graph::HybridStore>(
            [] {
                return graph::HybridStore(kOneEdgeVertices,
                                          testutil::tight_tuning());
            },
            seed);
    }
}

TEST(Updaters, DahMatchesAdjacencyListUnderBaseline)
{
    ThreadPool pool(4);
    RealContext ctx(pool);
    graph::AdjacencyList al(300);
    graph::DegreeAwareHash dah(300);
    for (int k = 0; k < 4; ++k) {
        EdgeBatch b;
        b.id = static_cast<std::uint64_t>(k + 1);
        b.set_edges(random_edges(2000, 100 + k, 0.15));
        apply_batch_baseline(al, b, ctx);
        apply_batch_baseline(dah, b, ctx);
    }
    ASSERT_EQ(al.num_edges(), dah.num_edges());
    for (VertexId v = 0; v < 300; ++v) {
        for (auto dir : {Direction::kOut, Direction::kIn}) {
            const auto a = al.sorted_edges(v, dir);
            const auto d = dah.sorted_edges(v, dir);
            ASSERT_EQ(a.size(), d.size()) << "vertex " << v;
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i].id, d[i].id);
                ASSERT_NEAR(a[i].weight, d[i].weight, 1e-3);
            }
        }
    }
}

TEST(Updaters, OcaProbeSeesOverlapThroughBaselineUpdates)
{
    graph::AdjacencyList g(100);
    RealContext ctx;
    EdgeBatch b1;
    b1.id = 1;
    for (VertexId v = 0; v < 50; ++v) {
        b1.push_edge({v, static_cast<VertexId>(v + 50), 1.0f, false});
    }
    apply_batch_baseline(g, b1, ctx);

    EdgeBatch b2;
    b2.id = 2;
    for (VertexId v = 0; v < 50; ++v) {
        // Half the sources repeat from batch 1.
        const VertexId src = v < 25 ? v : static_cast<VertexId>(v + 25);
        b2.push_edge({src, static_cast<VertexId>(99 - src % 50),
                            1.0f, false});
    }
    OcaProbe probe;
    apply_batch_baseline(g, b2, ctx, &probe);
    EXPECT_NEAR(probe.ratio(), 0.5, 0.05);
}

} // namespace
} // namespace igs::stream
