/**
 * @file
 * Tests for the epoch-versioned GraphStore and the update/compute
 * pipeline (DESIGN.md §11): snapshot publication correctness, depth-1
 * equivalence with the pre-pipeline engine, depth-2 result equality with
 * the serial run, backpressure accounting, per-epoch PendingWork
 * hand-off, and the sim frontend's modeled overlap.  Publication copies
 * only what each row's change mark says changed; the seeded
 * SnapshotStore.* harness checks the snapshot against the live store
 * after every publication, and a publication on a thread pool against
 * the one-thread form; the seeded hand-off test checks `affected`
 * against sort + unique (seeds replay via $IGS_TEST_SEED).
 */
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/compute_meter.h"
#include "analytics/incremental/analytics.h"
#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/dirty_set_view.h"
#include "graph/graph_store.h"
#include "graph/hybrid_store.h"
#include "graph/snapshot_view.h"
#include "sim/sim_engine.h"
#include "stream/pending.h"
#include "stream/reorder.h"
#include "stream/updaters.h"

#include "test_support.h"

namespace igs {
namespace {

using testutil::expect_reports_equal;
using testutil::expect_snapshot_matches_live;
using testutil::harness_seeds;
using testutil::pipeline_batch;
using testutil::pipeline_config;
using testutil::seed_trace;

// Every storage backend satisfies the read-path concept; the live stores
// and the snapshot additionally carry the epoch token.
static_assert(graph::GraphReadPath<graph::AdjacencyList>);
static_assert(graph::GraphReadPath<graph::SnapshotView>);
static_assert(graph::GraphStore<graph::AdjacencyList>);
static_assert(graph::GraphStore<graph::SnapshotView>);

// ----------------------------------------------------------- snapshots
TEST(SnapshotStore, FirstPublishCopiesWholeGraph)
{
    graph::AdjacencyList live(8);
    live.apply_insert(1, {2, 1.0f}, Direction::kOut);
    live.apply_insert(2, {1, 1.0f}, Direction::kIn);
    live.apply_insert(3, {4, 2.5f}, Direction::kOut);
    live.apply_insert(4, {3, 2.5f}, Direction::kIn);
    live.advance_epoch();

    graph::SnapshotStore store;
    // Empty dirty set: the first publication must still copy everything.
    const auto ps = store.publish(live, {});
    EXPECT_EQ(ps.epoch, 1u);
    EXPECT_EQ(ps.dirty_vertices, 8u);
    EXPECT_EQ(ps.copied_edges, 4u);
    EXPECT_EQ(ps.grown_vertices, 8u);
    expect_snapshot_matches_live(store.view(), live);
    EXPECT_EQ(store.view().epoch(), 1u);
}

TEST(SnapshotStore, IncrementalPublishCopiesOnlyDirtyVertices)
{
    graph::AdjacencyList live(6);
    live.apply_insert(0, {1, 1.0f}, Direction::kOut);
    live.apply_insert(1, {0, 1.0f}, Direction::kIn);
    live.advance_epoch();
    graph::SnapshotStore store;
    (void)store.publish(live, {});

    // Mutate vertices 2 and 3 only; vertex 0/1 snapshots must survive a
    // publication whose dirty set excludes them.
    live.apply_insert(2, {3, 4.0f}, Direction::kOut);
    live.apply_insert(3, {2, 4.0f}, Direction::kIn);
    live.advance_epoch();
    const std::vector<VertexId> dirty{2, 3};
    const auto ps = store.publish(live, dirty);
    EXPECT_EQ(ps.epoch, 2u);
    EXPECT_EQ(ps.dirty_vertices, 2u);
    EXPECT_EQ(ps.copied_edges, 2u); // one out-entry + one in-entry
    EXPECT_EQ(ps.grown_vertices, 0u);
    expect_snapshot_matches_live(store.view(), live);

    // A stale dirty set misses vertex 4's new edge: the snapshot must NOT
    // pick it up — proof that publication copies only what it is told.
    live.apply_insert(4, {5, 1.0f}, Direction::kOut);
    live.advance_epoch();
    (void)store.publish(live, dirty);
    EXPECT_EQ(store.view().degree(4, Direction::kOut), 0u);
    EXPECT_EQ(live.degree(4, Direction::kOut), 1u);
}

TEST(SnapshotStore, DirtyIdsBeyondLiveVertexSpaceAreIgnored)
{
    graph::AdjacencyList live(4);
    live.advance_epoch();
    graph::SnapshotStore store;
    (void)store.publish(live, {});
    live.advance_epoch();
    const std::vector<VertexId> dirty{2, 17, 400};
    const auto ps = store.publish(live, dirty);
    EXPECT_EQ(ps.copied_edges, 0u);
    EXPECT_EQ(store.view().num_vertices(), 4u);
}

TEST(SnapshotStoreDeathTest, PublishWithoutEpochAdvanceAborts)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    graph::AdjacencyList live(4);
    graph::SnapshotStore store;
    // A live store that never advanced would be taken for a first
    // publication every time, recopying the whole graph ...
    EXPECT_DEATH((void)store.publish(live, {}), "advance the live epoch");
    live.advance_epoch();
    (void)store.publish(live, {});
    // ... and every later publication must see a newer epoch.
    live.apply_insert(0, {1, 1.0f}, Direction::kOut);
    const std::vector<VertexId> dirty{0};
    EXPECT_DEATH((void)store.publish(live, dirty), "advance the live epoch");
}

/** A live store of backend `Live` over `n` vertices; HybridStore gets
 *  the tight tuning so small degrees cross both promotion thresholds. */
template <typename Live>
Live
make_live(std::size_t n)
{
    if constexpr (std::is_same_v<Live, graph::HybridStore>) {
        return graph::HybridStore(n, testutil::tight_tuning());
    } else {
        return Live(n);
    }
}

/** `v` with `degree` out-edges (targets 1..degree), published once. */
template <typename Live>
void
publish_out_row(Live& live, graph::SnapshotStore& store, VertexId v,
                std::uint32_t degree)
{
    for (VertexId t = 1; t <= degree; ++t) {
        live.apply_insert(v, {t, 1.0f}, Direction::kOut);
    }
    live.advance_epoch();
    (void)store.publish(live, {});
}

template <typename Live>
void
append_only_epoch_copies_appended_entries()
{
    Live live = make_live<Live>(1200);
    graph::SnapshotStore store;
    publish_out_row(live, store, 0, 1000);
    const std::vector<VertexId> dirty{0};
    // The first publication copied the row exact-fit, so its first
    // growth reallocates by the growth rule and copies it whole ...
    live.apply_insert(0, {1001, 1.0f}, Direction::kOut);
    live.advance_epoch();
    EXPECT_EQ(store.publish(live, dirty).copied_edges, 1001u);
    // ... after which appends land in the slack: only they are copied.
    for (VertexId t = 1002; t <= 1004; ++t) {
        live.apply_insert(0, {t, 1.0f}, Direction::kOut);
    }
    live.advance_epoch();
    EXPECT_EQ(store.publish(live, dirty).copied_edges, 3u);
    expect_snapshot_matches_live(store.view(), live);
}

TEST(SnapshotStore, AppendOnlyEpochCopiesOnlyAppendedEntries)
{
    append_only_epoch_copies_appended_entries<graph::AdjacencyList>();
    append_only_epoch_copies_appended_entries<graph::HybridStore>();
}

template <typename Live>
void
duplicate_at_row_start_recopies_row()
{
    Live live = make_live<Live>(1200);
    graph::SnapshotStore store;
    publish_out_row(live, store, 0, 1000);
    // Accumulate onto the row's first entry: everything from index 0 on
    // may have changed as far as the mark can tell.
    const VertexId first = live.edges(0, Direction::kOut)[0].id;
    EXPECT_TRUE(live.apply_insert(0, {first, 2.0f}, Direction::kOut).found);
    live.advance_epoch();
    const std::vector<VertexId> dirty{0};
    EXPECT_EQ(store.publish(live, dirty).copied_edges, 1000u);
    expect_snapshot_matches_live(store.view(), live);
}

TEST(SnapshotStore, DuplicateAtRowStartCopiesWholeRow)
{
    duplicate_at_row_start_recopies_row<graph::AdjacencyList>();
    duplicate_at_row_start_recopies_row<graph::HybridStore>();
}

template <typename Live>
void
untouched_direction_copies_nothing()
{
    Live live = make_live<Live>(64);
    graph::SnapshotStore store;
    for (VertexId u = 1; u <= 40; ++u) {
        live.apply_insert(0, {u, 1.0f}, Direction::kIn);
    }
    publish_out_row(live, store, 0, 40);
    // Only vertex 0's out-row changes (a weight hit on its last entry);
    // its 40-entry in-row is dirty by vertex but unchanged by mark.
    const VertexId last = live.edges(0, Direction::kOut)[39].id;
    EXPECT_TRUE(live.apply_insert(0, {last, 1.0f}, Direction::kOut).found);
    live.advance_epoch();
    const std::vector<VertexId> dirty{0};
    EXPECT_EQ(store.publish(live, dirty).copied_edges, 1u);
    expect_snapshot_matches_live(store.view(), live);
}

TEST(SnapshotStore, UntouchedDirectionCopiesNothing)
{
    untouched_direction_copies_nothing<graph::AdjacencyList>();
    untouched_direction_copies_nothing<graph::HybridStore>();
}

/**
 * Targeted edges against `live`: for a few rows — hub in-rows, the long
 * ones, and random out-rows — a duplicate of the row's first entry (a
 * weight hit at index 0) and a delete of its middle entry (a
 * swap-with-last hole, a sorted-tier erase or a hashed-tier swap-fill).
 * They ride in a batch so the dirty set sees them.
 */
template <typename Live>
std::vector<StreamEdge>
targeted_edges(const Live& live, std::uint64_t num_hubs, Rng& rng)
{
    std::vector<StreamEdge> edges;
    for (int k = 0; k < 4; ++k) {
        const Direction dir = k % 2 == 0 ? Direction::kIn : Direction::kOut;
        const auto v = static_cast<VertexId>(rng.below(
            dir == Direction::kIn
                ? std::min<std::uint64_t>(num_hubs, live.num_vertices())
                : live.num_vertices()));
        const auto& row = live.edges(v, dir);
        // The streamed edge behind v's row entry i.
        const auto edge = [&](std::size_t i, Weight w, bool del) {
            return dir == Direction::kOut ? StreamEdge{v, row[i].id, w, del}
                                          : StreamEdge{row[i].id, v, w, del};
        };
        if (row.empty()) {
            continue;
        }
        edges.push_back(edge(0, 0.5f, false));
        if (row.size() >= 2) {
            edges.push_back(edge(row.size() / 2, 1.0f, true));
        }
    }
    return edges;
}

/** `a` and `b` hold the same rows, entry by entry, weights bit for bit. */
void
expect_views_identical(const graph::SnapshotView& a,
                       const graph::SnapshotView& b)
{
    ASSERT_EQ(a.num_vertices(), b.num_vertices());
    EXPECT_EQ(a.num_edges(), b.num_edges());
    EXPECT_EQ(a.epoch(), b.epoch());
    for (VertexId v = 0; v < a.num_vertices(); ++v) {
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const auto& ra = a.edges(v, dir);
            const auto& rb = b.edges(v, dir);
            ASSERT_EQ(ra.size(), rb.size())
                << "vertex " << v << " dir " << to_string(dir);
            for (std::size_t i = 0; i < ra.size(); ++i) {
                ASSERT_TRUE(ra[i].id == rb[i].id &&
                            std::bit_cast<std::uint32_t>(ra[i].weight) ==
                                std::bit_cast<std::uint32_t>(rb[i].weight))
                    << "vertex " << v << " dir " << to_string(dir)
                    << " entry " << i;
            }
        }
    }
}

void
expect_stats_equal(const graph::PublishStats& a, const graph::PublishStats& b)
{
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.dirty_vertices, b.dirty_vertices);
    EXPECT_EQ(a.copied_edges, b.copied_edges);
    EXPECT_EQ(a.grown_vertices, b.grown_vertices);
}

/** One live store and the snapshot store published from it. */
template <typename Live>
struct Replica {
    Live live = make_live<Live>(0);
    graph::SnapshotStore store;
};

/**
 * Drive `Live` with a seeded stream through every update kernel and
 * publish after each group of 1-3 batches, checking snapshot == live
 * after every publication.  The stream's vertex space widens halfway,
 * and two publications are preceded by an apply_renumber.
 *
 * With `pooled`, a second replica receives the same batches, kernels and
 * renumberings and publishes on `pooled` while the first publishes on the
 * caller's thread; after every publication the two snapshots must be
 * identical and their PublishStats equal.  Updates then run on one worker
 * so the two live stores hold every row in the same order, and the
 * vertex space is four times wider so the dirty sets and the first
 * publication span several publication chunks.
 */
template <typename Live>
void
snapshot_tracks_live(std::uint64_t seed, ThreadPool* pooled = nullptr)
{
    ThreadPool pool(pooled != nullptr ? 1 : 2);
    stream::UscScratch scratch;
    stream::RealContext ctx(pool, &scratch);
    Rng rng(seed);
    std::array<Replica<Live>, 2> replicas;
    const std::size_t num_replicas = pooled != nullptr ? 2 : 1;
    const std::uint64_t scale = pooled != nullptr ? 4 : 1;
    Live& live = replicas[0].live;
    stream::PendingAccumulator pending;

    gen::StreamModel m;
    m.num_vertices = 240 * scale;
    m.num_hubs = 6;
    m.hub_mass_dst = 0.5;
    m.delete_fraction = 0.2;
    m.weighted = true;
    m.seed = seed;
    gen::EdgeStreamGenerator narrow(m);
    m.num_vertices = 400 * scale;
    m.seed = seed + 1;
    gen::EdgeStreamGenerator wide(m);

    std::uint64_t bid = 0;
    constexpr int kEpochs = 24;
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        const auto batches = 1 + rng.below(3);
        for (std::uint64_t b = 0; b < batches; ++b) {
            auto edges =
                (epoch <= kEpochs / 2 ? narrow : wide).take(150 * scale);
            if (live.num_vertices() > 0) {
                const auto extra = targeted_edges(live, m.num_hubs, rng);
                edges.insert(edges.end(), extra.begin(), extra.end());
            }
            const stream::EdgeBatch batch(++bid, std::move(edges));
            VertexId max_id = 0;
            for (const StreamEdge& e : batch.edges()) {
                max_id = std::max({max_id, e.src, e.dst});
            }
            const auto kernel = rng.below(3);
            for (std::size_t r = 0; r < num_replicas; ++r) {
                Live& l = replicas[r].live;
                l.ensure_vertices(max_id + 1);
                switch (kernel) {
                case 0:
                    stream::apply_batch_baseline(l, batch, ctx);
                    break;
                case 1:
                    stream::apply_batch_reordered(
                        l, batch, stream::reorder_batch(batch.edges(), pool),
                        ctx);
                    break;
                default:
                    stream::apply_batch_usc(
                        l, batch, stream::reorder_batch(batch.edges(), pool),
                        ctx);
                    break;
                }
            }
            pending.note_batch(batch);
        }
        if (epoch == 8 || epoch == 16) {
            // Re-place every row; marks must travel with their rows.
            std::vector<VertexId> l2p(live.num_vertices());
            std::iota(l2p.begin(), l2p.end(), VertexId{0});
            std::shuffle(l2p.begin(), l2p.end(), rng);
            for (std::size_t r = 0; r < num_replicas; ++r) {
                replicas[r].live.apply_renumber(l2p);
            }
        }
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        EpochId e = 0;
        for (std::size_t r = 0; r < num_replicas; ++r) {
            e = replicas[r].live.advance_epoch();
        }
        const stream::PendingWork work = pending.hand_off(e);
        const graph::PublishStats one_thread =
            replicas[0].store.publish(live, work.affected);
        expect_snapshot_matches_live(replicas[0].store.view(), live);
        if (pooled != nullptr) {
            Replica<Live>& p = replicas[1];
            const graph::PublishStats fanned =
                p.store.publish(p.live, work.affected, *pooled);
            expect_stats_equal(fanned, one_thread);
            expect_views_identical(p.store.view(), replicas[0].store.view());
            expect_snapshot_matches_live(p.store.view(), p.live);
        }
        if (::testing::Test::HasFailure()) {
            return;
        }
    }
    EXPECT_GT(live.num_vertices(), 240u * scale);
    if constexpr (std::is_same_v<Live, graph::HybridStore>) {
        // The stream crossed both promotion thresholds somewhere.
        EXPECT_GT(live.tier_census().vertices[graph::HybridEdgeSet::kHashed],
                  0u);
    }
}

TEST(SnapshotStore, MatchesLiveAfterEveryPublication)
{
    for (const std::uint64_t seed : harness_seeds({151, 152, 153})) {
        SCOPED_TRACE(seed_trace(seed));
        {
            SCOPED_TRACE("AdjacencyList");
            snapshot_tracks_live<graph::AdjacencyList>(seed);
        }
        {
            SCOPED_TRACE("HybridStore");
            snapshot_tracks_live<graph::HybridStore>(seed);
        }
    }
}

TEST(SnapshotStore, PooledPublishMatchesOneWorkerPublish)
{
    ThreadPool pooled(4);
    for (const std::uint64_t seed : harness_seeds({161, 162, 163})) {
        SCOPED_TRACE(seed_trace(seed));
        {
            SCOPED_TRACE("AdjacencyList");
            snapshot_tracks_live<graph::AdjacencyList>(seed, &pooled);
        }
        {
            SCOPED_TRACE("HybridStore");
            snapshot_tracks_live<graph::HybridStore>(seed, &pooled);
        }
    }
}

// ----------------------------------------------------- pending hand-off
TEST(PendingAccumulator, HandOffMatchesSortedUniqueOracle)
{
    // Ids on the bitmap's word boundaries, small ids that repeat within a
    // batch and across a window, and ids past every id noted so far (the
    // bitmap grows to them).  Windows aggregate 1-3 batches, and the
    // legacy take() is interleaved with hand_off.
    for (const std::uint64_t seed : harness_seeds({171, 172, 173})) {
        SCOPED_TRACE(seed_trace(seed));
        Rng rng(seed);
        stream::PendingAccumulator acc;
        VertexId ceiling = 128;
        std::uint64_t bid = 0;
        for (int window = 1; window <= 40; ++window) {
            SCOPED_TRACE("window " + std::to_string(window));
            std::vector<VertexId> endpoints;
            std::vector<StreamEdge> inserted;
            std::vector<StreamEdge> deleted;
            const auto batches = 1 + rng.below(3);
            for (std::uint64_t b = 0; b < batches; ++b) {
                const auto pick = [&]() -> VertexId {
                    switch (rng.below(4)) {
                    case 0: {
                        constexpr VertexId kBoundary[] = {0, 63, 64, 127};
                        return kBoundary[rng.below(4)];
                    }
                    case 1:
                        // Revisit an id of this window, if any.
                        if (!endpoints.empty()) {
                            return endpoints[rng.below(endpoints.size())];
                        }
                        [[fallthrough]];
                    case 2:
                        return static_cast<VertexId>(rng.below(ceiling));
                    default:
                        return static_cast<VertexId>(ceiling +
                                                     rng.below(ceiling));
                    }
                };
                std::vector<StreamEdge> edges(rng.below(40));
                for (StreamEdge& e : edges) {
                    e.src = pick();
                    endpoints.push_back(e.src);
                    e.dst = pick();
                    endpoints.push_back(e.dst);
                    e.is_delete = rng.below(5) == 0;
                    (e.is_delete ? deleted : inserted).push_back(e);
                }
                acc.note_batch(stream::EdgeBatch(++bid, std::move(edges)));
            }
            ceiling = std::min<VertexId>(ceiling * 2, VertexId{1} << 20);

            std::sort(endpoints.begin(), endpoints.end());
            endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                            endpoints.end());
            const bool legacy = rng.below(3) == 0;
            const auto epoch = static_cast<EpochId>(window);
            const stream::PendingWork w =
                legacy ? acc.take() : acc.hand_off(epoch);
            EXPECT_EQ(w.affected, endpoints);
            EXPECT_EQ(w.epoch, legacy ? 0u : epoch);
            EXPECT_EQ(w.batches, batches);
            ASSERT_EQ(w.inserted.size(), inserted.size());
            ASSERT_EQ(w.deleted.size(), deleted.size());
            for (std::size_t i = 0; i < inserted.size(); ++i) {
                EXPECT_EQ(w.inserted[i].src, inserted[i].src);
                EXPECT_EQ(w.inserted[i].dst, inserted[i].dst);
            }
            for (std::size_t i = 0; i < deleted.size(); ++i) {
                EXPECT_EQ(w.deleted[i].src, deleted[i].src);
                EXPECT_EQ(w.deleted[i].dst, deleted[i].dst);
            }
            EXPECT_TRUE(acc.empty());

            // The hand-off cleared every word it read.
            const stream::PendingWork again = acc.hand_off(epoch + 1);
            EXPECT_TRUE(again.affected.empty());
            EXPECT_TRUE(again.inserted.empty());
            EXPECT_TRUE(again.deleted.empty());
            EXPECT_EQ(again.batches, 0u);
            if (::testing::Test::HasFailure()) {
                return;
            }
        }
    }
}

TEST(PendingAccumulator, HandOffOnEmptyAccumulatorIsEmptyButStamped)
{
    stream::PendingAccumulator acc;
    EXPECT_TRUE(acc.empty());
    const auto w = acc.hand_off(7);
    EXPECT_TRUE(w.affected.empty());
    EXPECT_TRUE(w.inserted.empty());
    EXPECT_TRUE(w.deleted.empty());
    EXPECT_EQ(w.batches, 0u);
    EXPECT_EQ(w.epoch, 7u);
    // Legacy epochless drain on the (still empty) accumulator.
    const auto legacy = acc.take();
    EXPECT_EQ(legacy.epoch, 0u);
    EXPECT_EQ(legacy.batches, 0u);
    EXPECT_TRUE(acc.empty());
}

TEST(PendingAccumulator, DeleteThenInsertOfSameEdgeWithinAggregatedWindow)
{
    // OCA aggregates two batches into one compute round.  Batch 1 deletes
    // (5,6); batch 2 re-inserts it.  The hand-off must preserve both
    // modifications (the compute phase sees the net effect through the
    // snapshot; incremental SSSP needs both lists to trim and re-relax).
    stream::PendingAccumulator acc;
    stream::EdgeBatch b1(1, {{5, 6, 1.0f, /*is_delete=*/true}});
    stream::EdgeBatch b2(2, {{5, 6, 2.0f, /*is_delete=*/false}});
    acc.note_batch(b1);
    EXPECT_FALSE(acc.empty());
    acc.note_batch(b2);
    const auto w = acc.hand_off(3);
    EXPECT_EQ(w.batches, 2u);
    EXPECT_EQ(w.epoch, 3u);
    ASSERT_EQ(w.deleted.size(), 1u);
    ASSERT_EQ(w.inserted.size(), 1u);
    EXPECT_TRUE(w.deleted[0].is_delete);
    EXPECT_EQ(w.inserted[0].weight, 2.0f);
    // Affected covers both endpoints once despite four mentions.
    EXPECT_EQ(w.affected, (std::vector<VertexId>{5, 6}));
    // The accumulator reset: a following window starts clean.
    EXPECT_TRUE(acc.empty());
    EXPECT_EQ(acc.pending_batches(), 0u);
}

// ------------------------------------------------- depth-1 equivalence
TEST(RealTimeEnginePipeline, DepthOneMatchesUnpipelinedEngineExactly)
{
    ThreadPool pool(4);
    const auto cfg = pipeline_config(core::UpdatePolicy::kAbrUsc, 1);
    core::RealTimeEngine plain(cfg, 2000, pool);
    core::RealTimeEngine piped(cfg, 2000, pool);
    std::uint64_t rounds = 0;
    piped.set_compute([&](const graph::SnapshotView& snap,
                          const core::PendingWork& work) {
        ++rounds;
        EXPECT_EQ(snap.epoch(), work.epoch);
    });

    for (std::uint64_t k = 1; k <= 4; ++k) {
        const auto batch = pipeline_batch(k, 1200, 40 + k);
        const auto ra = plain.ingest(batch);
        const auto rb = piped.ingest(batch);
        expect_reports_equal(ra, rb);
        // The legacy polling contract is untouched in pipeline mode.
        EXPECT_EQ(plain.compute_due(), piped.compute_due());
    }
    EXPECT_TRUE(plain.graph().same_topology(piped.graph()));
    EXPECT_GT(rounds, 0u);
    // An OCA-deferred tail may still be pending; flush it so the final
    // snapshot corresponds to the full stream.
    piped.flush_pipeline();
    EXPECT_EQ(rounds, piped.pipeline_stats().epochs_published);
    // Depth 1 runs rounds inline: no compute thread, no stalls.
    EXPECT_EQ(piped.pipeline_stats().backpressure_stalls, 0u);
    // The published snapshot is the live graph at the last publication.
    expect_snapshot_matches_live(piped.snapshot(), piped.graph());
    EXPECT_EQ(piped.snapshot().epoch(), piped.graph().epoch());
}

// ------------------------------------------------- depth-2 equivalence
/** The incremental kernels, settled on the engine's initial empty graph
 *  and then run as one delta round per published epoch. */
struct PipelineAnalytics {
    analytics::incremental::PageRank pagerank;
    analytics::incremental::Sssp sssp{0};
    analytics::ComputeMeter meter;

    explicit PipelineAnalytics(const graph::AdjacencyList& initial)
    {
        pagerank.full_rerun(initial);
        sssp.full_rerun(initial);
    }

    void
    round(const graph::SnapshotView& snap, const core::PendingWork& work)
    {
        meter.round_on(work.epoch);
        const graph::DirtySetView view(snap, work.affected);
        pagerank.delta_propagate(view, &meter);
        sssp.delta_update(view, work.inserted, work.deleted, &meter);
    }
};

TEST(RealTimeEnginePipeline, DepthTwoResultsEqualSerialRun)
{
    // One update worker pins the edge-array order: under a multi-worker
    // update only weights/topology are schedule-deterministic (see
    // adjacency_list.h), and incremental PageRank's float summation is
    // order-sensitive.  With the order pinned, any divergence below is
    // attributable to the pipeline itself — which must introduce none.
    ThreadPool pool(1);
    const auto serial_cfg = pipeline_config(core::UpdatePolicy::kAbrUsc, 1);
    const auto piped_cfg = pipeline_config(core::UpdatePolicy::kAbrUsc, 2);
    core::RealTimeEngine serial_engine(serial_cfg, 2000, pool);
    core::RealTimeEngine piped_engine(piped_cfg, 2000, pool);
    PipelineAnalytics serial(serial_engine.graph());
    PipelineAnalytics overlapped(piped_engine.graph());
    serial_engine.set_compute(
        [&](const graph::SnapshotView& s, const core::PendingWork& w) {
            serial.round(s, w);
        });
    piped_engine.set_compute(
        [&](const graph::SnapshotView& s, const core::PendingWork& w) {
            overlapped.round(s, w);
        });

    for (std::uint64_t k = 1; k <= 6; ++k) {
        // Mix in deletions so the SSSP trim path is exercised.
        auto batch = pipeline_batch(k, 900, 50 + k);
        if (k >= 2) {
            auto prev = pipeline_batch(k - 1, 900, 50 + k - 1);
            for (std::size_t i = 0; i < 40; ++i) {
                StreamEdge del = prev.edges()[i * 7];
                del.is_delete = true;
                batch.push_edge(del);
            }
        }
        (void)serial_engine.ingest(batch);
        (void)piped_engine.ingest(batch);
    }
    serial_engine.flush_pipeline();
    piped_engine.flush_pipeline();

    // Same epochs, same snapshots, same rounds => bitwise-equal results.
    EXPECT_TRUE(serial_engine.graph().same_topology(piped_engine.graph()));
    EXPECT_EQ(serial.meter.last_epoch(), overlapped.meter.last_epoch());
    EXPECT_EQ(serial.meter.stats().activations,
              overlapped.meter.stats().activations);
    EXPECT_EQ(serial.meter.stats().traversals,
              overlapped.meter.stats().traversals);
    EXPECT_EQ(serial.pagerank.ranks(), overlapped.pagerank.ranks());
    EXPECT_EQ(serial.sssp.distances(), overlapped.sssp.distances());
    EXPECT_GT(serial.pagerank.ranks().size(), 0u);
}

TEST(RealTimeEnginePipeline, DepthTwoComputeSeesOnlyPublishedDirtySet)
{
    // Each batch k touches only the disjoint vertex range
    // [(k-1)*100, (k-1)*100 + 50).  At depth 2 the incremental compute
    // round for epoch k runs concurrently with the ingest of batch k+1
    // into the live graph — but it must see exactly epoch k's published
    // snapshot and dirty set: the dirty vertices all lie in batch k's
    // range, and every later batch's range is still empty in the
    // snapshot.  (The tsan check_matrix leg re-runs this test to prove
    // the overlap is race-free, not just value-correct.)
    constexpr std::uint64_t kBatches = 6;
    constexpr VertexId kStride = 100;
    constexpr VertexId kSpan = 50;
    const auto range_lo = [](EpochId k) {
        return static_cast<VertexId>((k - 1) * kStride);
    };

    ThreadPool pool(4);
    const auto cfg = pipeline_config(core::UpdatePolicy::kBaseline, 2);
    core::RealTimeEngine engine(cfg, 2000, pool);

    struct EpochRecord {
        EpochId epoch = 0;
        EpochId snap_epoch = 0;
        bool delta = false;
        bool dirty_in_range = false;
        bool future_ranges_empty = false;
        bool sssp_matches = false;
        bool bfs_matches = false;
    };
    Mutex mu;
    std::vector<EpochRecord> records;
    analytics::incremental::IncrementalAnalytics bundle;

    engine.set_compute([&](const graph::SnapshotView& snap,
                           const core::PendingWork& work) {
        EpochRecord r;
        r.epoch = work.epoch;
        r.snap_epoch = snap.epoch();
        const VertexId lo = range_lo(work.epoch);
        r.dirty_in_range =
            !work.affected.empty() &&
            std::all_of(work.affected.begin(), work.affected.end(),
                        [&](VertexId v) {
                            return v >= lo && v < lo + kSpan;
                        });
        r.future_ranges_empty = true;
        for (EpochId k = work.epoch + 1; k <= kBatches; ++k) {
            for (VertexId v = range_lo(k); v < range_lo(k) + kSpan; ++v) {
                if (snap.degree(v, Direction::kOut) != 0) {
                    r.future_ranges_empty = false;
                }
            }
        }
        const auto d = bundle.on_epoch(snap, work);
        r.delta = d.delta;
        r.sssp_matches =
            bundle.sssp().distances() == analytics::static_sssp(snap, 0);
        r.bfs_matches =
            bundle.bfs().hops() == analytics::bfs_distances(snap, 0);
        const MutexLock lock(mu);
        records.push_back(r);
    });

    for (EpochId k = 1; k <= kBatches; ++k) {
        std::vector<StreamEdge> edges;
        for (VertexId i = 0; i + 1 < kSpan; ++i) {
            edges.push_back({range_lo(k) + i, range_lo(k) + i + 1, 1.0f,
                             /*is_delete=*/false});
        }
        (void)engine.ingest(stream::EdgeBatch(k, std::move(edges)));
    }
    engine.flush_pipeline();

    ASSERT_EQ(records.size(), kBatches);
    for (const EpochRecord& r : records) {
        SCOPED_TRACE("epoch=" + std::to_string(r.epoch));
        EXPECT_EQ(r.snap_epoch, r.epoch);
        EXPECT_TRUE(r.dirty_in_range);
        EXPECT_TRUE(r.future_ranges_empty);
        EXPECT_TRUE(r.sssp_matches);
        EXPECT_TRUE(r.bfs_matches);
        // kAuto sends every warm epoch down the delta path here: the
        // dirty fraction is 50/2000 and there are no deletions.
        EXPECT_EQ(r.delta, r.epoch > 1);
    }
    EXPECT_EQ(bundle.delta_epochs(), kBatches - 1);
}

TEST(RealTimeEnginePipeline, DepthTwoStallsWhenComputeOutlastsIngest)
{
    ThreadPool pool(4);
    const auto cfg = pipeline_config(core::UpdatePolicy::kBaseline, 2);
    core::RealTimeEngine engine(cfg, 2000, pool);
    std::atomic<std::uint64_t> rounds{0};
    engine.set_compute([&](const graph::SnapshotView&,
                           const core::PendingWork&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        rounds.fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t k = 1; k <= 3; ++k) {
        (void)engine.ingest(pipeline_batch(k, 400, 60 + k));
    }
    engine.flush_pipeline();
    const auto& ps = engine.pipeline_stats();
    EXPECT_EQ(rounds.load(), 3u);
    EXPECT_EQ(ps.epochs_published, 3u);
    // A 20ms round always outlasts a 400-edge ingest: every publication
    // after the first (and the final flush) waits on the in-flight round.
    EXPECT_GE(ps.backpressure_stalls, 2u);
    EXPECT_GT(ps.stall_seconds, 0.0);
}

TEST(RealTimeEnginePipeline, FlushPublishesOcaDeferredTail)
{
    ThreadPool pool(4);
    auto cfg = pipeline_config(core::UpdatePolicy::kBaseline, 2);
    cfg.oca.enabled = true;
    cfg.oca.threshold = 0.0; // always aggregate once measured
    cfg.abr.n = 1;           // probe every batch
    core::RealTimeEngine engine(cfg, 2000, pool);
    std::atomic<std::uint64_t> batches_computed{0};
    engine.set_compute([&](const graph::SnapshotView&,
                           const core::PendingWork& w) {
        batches_computed.fetch_add(w.batches, std::memory_order_relaxed);
    });
    (void)engine.ingest(pipeline_batch(1, 500, 71));
    // Batch 2 defers its round (aggregation latched): no publication.
    const auto r2 = engine.ingest(pipeline_batch(2, 500, 72));
    EXPECT_TRUE(r2.defer_compute);
    engine.flush_pipeline();
    // The deferred tail reached compute via the flush.
    EXPECT_EQ(batches_computed.load(), 2u);
    EXPECT_EQ(engine.pipeline_stats().epochs_published, 2u);
    // Flushing again is a no-op.
    engine.flush_pipeline();
    EXPECT_EQ(engine.pipeline_stats().epochs_published, 2u);
}

// ----------------------------------------------------- epochs + tokens
template <typename Live>
void
depth_two_usc_snapshot_matches_live()
{
    // Two USC workers write rows (and their change marks) under run
    // ownership while the previous epoch computes on the snapshot.
    ThreadPool pool(2);
    auto cfg = pipeline_config(core::UpdatePolicy::kAlwaysReorderUsc, 2);
    cfg.store = testutil::tight_tuning();
    core::BasicRealTimeEngine<Live> engine(cfg, 2000, pool);
    std::atomic<std::uint64_t> rounds{0};
    engine.set_compute(
        [&](const graph::SnapshotView& snap, const core::PendingWork& w) {
            EXPECT_EQ(snap.epoch(), w.epoch);
            rounds.fetch_add(1, std::memory_order_relaxed);
        });
    for (std::uint64_t k = 1; k <= 8; ++k) {
        (void)engine.ingest(pipeline_batch(k, 1500, 70 + k));
    }
    engine.flush_pipeline();
    EXPECT_GT(rounds.load(), 1u);
    expect_snapshot_matches_live(engine.snapshot(), engine.graph());
    EXPECT_EQ(engine.snapshot().epoch(), engine.graph().epoch());
}

TEST(RealTimeEnginePipeline, DepthTwoUscSnapshotMatchesLiveAfterFlush)
{
    depth_two_usc_snapshot_matches_live<graph::AdjacencyList>();
    depth_two_usc_snapshot_matches_live<graph::HybridStore>();
}

TEST(Epochs, AdvanceOnHandOffAndStampWork)
{
    sim::SimEngine engine(pipeline_config(core::UpdatePolicy::kBaseline, 2),
                          sim::MachineParams{}, sim::SwCostParams{},
                          sim::HauCostParams{}, 2000);
    EXPECT_EQ(engine.graph().epoch(), 0u);
    (void)engine.ingest(pipeline_batch(1, 300, 80));
    const auto w1 = engine.take_pending_work();
    EXPECT_EQ(w1.epoch, 1u);
    EXPECT_EQ(engine.graph().epoch(), 1u);
    (void)engine.ingest(pipeline_batch(2, 300, 81));
    const auto w2 = engine.take_pending_work();
    EXPECT_EQ(w2.epoch, 2u);
}

// ------------------------------------------------- sim overlap modeling
TEST(SimEnginePipeline, UpdateCyclesHiddenUnderComputeAtDepthTwo)
{
    sim::SimEngine engine(pipeline_config(core::UpdatePolicy::kBaseline, 2),
                          sim::MachineParams{}, sim::SwCostParams{},
                          sim::HauCostParams{}, 2000);
    const auto r1 = engine.ingest(pipeline_batch(1, 800, 90));
    EXPECT_EQ(r1.update_hidden_cycles, 0u); // nothing in flight yet
    (void)engine.take_pending_work();
    // A compute round larger than any batch's update: the next batches'
    // updates hide completely until the budget drains.
    engine.note_compute_round(r1.update.cycles * 3);
    const auto r2 = engine.ingest(pipeline_batch(2, 800, 91));
    EXPECT_EQ(r2.update_hidden_cycles, r2.update.cycles);
    EXPECT_GT(r2.update_hidden_cycles, 0u);
    // Budget drains monotonically across subsequent ingests.
    const auto r3 = engine.ingest(pipeline_batch(3, 800, 92));
    const auto r4 = engine.ingest(pipeline_batch(4, 800, 93));
    const auto r5 = engine.ingest(pipeline_batch(5, 800, 94));
    const Cycles hidden_total = r2.update_hidden_cycles +
                                r3.update_hidden_cycles +
                                r4.update_hidden_cycles +
                                r5.update_hidden_cycles;
    EXPECT_LE(hidden_total, r1.update.cycles * 3);
    EXPECT_LT(r5.update_hidden_cycles, r5.update.cycles); // budget exhausted
}

TEST(SimEnginePipeline, NoHidingAtDepthOne)
{
    sim::SimEngine engine(pipeline_config(core::UpdatePolicy::kBaseline, 1),
                          sim::MachineParams{}, sim::SwCostParams{},
                          sim::HauCostParams{}, 2000);
    const auto r1 = engine.ingest(pipeline_batch(1, 800, 95));
    (void)engine.take_pending_work();
    engine.note_compute_round(r1.update.cycles * 100);
    const auto r2 = engine.ingest(pipeline_batch(2, 800, 96));
    EXPECT_EQ(r2.update_hidden_cycles, 0u);
}

// ----------------------------------------------------------- move fix
TEST(AdjacencyListMove, MoveConstructionTransfersAndZeroesSource)
{
    graph::AdjacencyList a(16);
    a.apply_insert(3, {4, 1.5f}, Direction::kOut);
    a.apply_insert(4, {3, 1.5f}, Direction::kIn);
    a.advance_epoch();
    graph::AdjacencyList b(std::move(a));
    EXPECT_EQ(b.num_vertices(), 16u);
    EXPECT_EQ(b.num_edges(), 1u);
    EXPECT_EQ(b.epoch(), 1u);
    EXPECT_EQ(b.degree(3, Direction::kOut), 1u);
    // The moved-from graph is empty and reusable, not half-alive.
    EXPECT_EQ(a.num_vertices(), 0u);   // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.num_edges(), 0u);
    EXPECT_EQ(a.epoch(), 0u);
    a.ensure_vertices(4);
    a.apply_insert(0, {1, 1.0f}, Direction::kOut);
    EXPECT_EQ(a.num_edges(), 1u);
    static_assert(!std::is_move_assignable_v<graph::AdjacencyList>);
}

} // namespace
} // namespace igs
