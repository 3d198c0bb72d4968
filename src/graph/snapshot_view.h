/**
 * @file
 * Immutable snapshot of a live graph, maintained by copy-on-publish.
 *
 * The pipeline (DESIGN.md §11) computes on epoch k's @ref SnapshotView
 * while the live store ingests batch k+1.  At pipeline depth 1 nothing
 * overlaps the round, so the engine publishes nothing and hands the
 * round a view over the live store instead (SnapshotView::over_live).
 * To keep publication cheap the
 * @ref SnapshotStore never copies the whole graph in steady state: the
 * engine hands it the dirty-vertex set accumulated since the previous
 * publication (stream::PendingWork::affected — every src/dst of every
 * batch edge, ascending and unique), and of those vertices' rows it
 * copies only the part that changed.  Each live store keeps a change mark
 * per row and direction — the lowest index written since the last
 * publication (graph/edge_rows.h) — so a row is skipped when unchanged
 * and otherwise refreshed from its mark: an append-only epoch copies the
 * appended entries, not the row.  Snapshot rows grow by the same rule as
 * live rows (a quarter of slack), so a growing row rarely reallocates;
 * when it does, it is copied whole into the new buffer.
 *
 * The refresh is a pool-tier fork/join (DESIGN.md §8.1) partitioned by
 * dirty vertex: workers claim dynamic chunks of the dirty list (of the
 * whole vertex range on the first publication), and the worker holding
 * vertex v alone reads v's live rows, takes v's two change marks and
 * writes v's two snapshot rows.  Vertex-space growth and the first
 * publication's mark reset run before and after the loop, on the caller.
 * Without a pool the same loop runs on the caller's thread.
 *
 * Thread contract: `publish` mutates the store and must never run
 * concurrently with readers of an outstanding @ref SnapshotView, nor with
 * writers of the live store.  The engine guarantees both by publishing
 * between batches, after the update's pool join, and by joining the
 * in-flight compute round before every publication (the same join
 * implements backpressure — ingest can run at most one epoch ahead of
 * compute).
 */
#ifndef IGS_GRAPH_SNAPSHOT_VIEW_H
#define IGS_GRAPH_SNAPSHOT_VIEW_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "graph/edge_rows.h"
#include "graph/graph_store.h"

namespace igs::graph {

/** What one epoch publication cost (drives pipeline telemetry). */
struct PublishStats {
    /** Epoch stamped on the refreshed snapshot. */
    EpochId epoch = 0;
    /** Dirty vertices whose rows were revisited. */
    std::size_t dirty_vertices = 0;
    /** Directed edge entries actually written (out + in). */
    EdgeId copied_edges = 0;
    /** Vertex slots added because the live graph grew. */
    std::size_t grown_vertices = 0;
};

class SnapshotStore;

/**
 * Read handle of one epoch's graph, over one of two sources:
 *  - the rows a SnapshotStore copied at its latest publication
 *    (SnapshotStore::view(); the pipeline at depth >= 2), valid until
 *    that store's next `publish` or destruction;
 *  - a live store's own rows (@ref over_live; depth 1, DESIGN.md §11.3),
 *    read through the store's `edges()`, whatever its edge-set type.
 *    Valid only while nothing writes the store.
 * Cheap to copy (pointers + counters); satisfies graph::GraphStore.
 */
class SnapshotView {
  public:
    SnapshotView() = default;

    /**
     * A view that reads `live`'s rows in place instead of a copy.  Sound
     * only while no writer runs on `live` — the engine builds it for a
     * round it runs inline between batches, and for `snapshot()` at
     * depth 1 — and invalidated, like any of the store's row views, by
     * the store's next mutation.  The counters are read now.
     */
    template <typename Live>
        requires GraphStore<Live>
    static SnapshotView
    over_live(const Live& live)
    {
        return {&live, &live_row<Live>, live.num_vertices(),
                live.num_edges(), live.epoch()};
    }

    std::size_t num_vertices() const { return num_vertices_; }
    EdgeId num_edges() const { return num_edges_; }
    /** Epoch this view was published at (0 = default-constructed/empty). */
    EpochId epoch() const { return epoch_; }

    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        // Rows are live adjacency rows or copies of them, whose degree
        // is bounded by the uint32 VertexId space by construction.
        // igs-lint: allow(unproven-narrowing)
        return static_cast<std::uint32_t>(edges(v, dir).size());
    }

    std::span<const Neighbor>
    edges(VertexId v, Direction dir) const
    {
        IGS_DCHECK(v < num_vertices_);
        if (live_ != nullptr) {
            return live_row_(live_, v, dir);
        }
        return (dir == Direction::kOut ? *out_ : *in_)[v];
    }

  private:
    friend class SnapshotStore;
    using RowFn = std::span<const Neighbor> (*)(const void*, VertexId,
                                                Direction);

    SnapshotView(const std::vector<std::vector<Neighbor>>* out,
                 const std::vector<std::vector<Neighbor>>* in,
                 EdgeId num_edges, EpochId epoch)
        : out_(out), in_(in), num_vertices_(out->size()),
          num_edges_(num_edges), epoch_(epoch)
    {
    }

    SnapshotView(const void* live, RowFn live_row, std::size_t num_vertices,
                 EdgeId num_edges, EpochId epoch)
        : live_(live), live_row_(live_row), num_vertices_(num_vertices),
          num_edges_(num_edges), epoch_(epoch)
    {
    }

    /** Row `v`/`dir` of the `Live` store at `store`, through its edges(). */
    template <typename Live>
    static std::span<const Neighbor>
    live_row(const void* store, VertexId v, Direction dir)
    {
        return static_cast<const Live*>(store)->edges(v, dir);
    }

    /** Copied source: the SnapshotStore's rows. */
    const std::vector<std::vector<Neighbor>>* out_ = nullptr;
    const std::vector<std::vector<Neighbor>>* in_ = nullptr;
    /** Live source: the store, and the row read for the store's type. */
    const void* live_ = nullptr;
    RowFn live_row_ = nullptr;
    std::size_t num_vertices_ = 0;
    EdgeId num_edges_ = 0;
    EpochId epoch_ = 0;
};

/**
 * Owns the snapshot arrays and refreshes them incrementally at each epoch
 * publication.  One store per engine; `view()` hands the compute thread a
 * stable read surface for the epoch.
 */
class SnapshotStore {
  public:
    /**
     * Refresh the snapshot from `live`, revisiting only `dirty` vertices
     * (ids may exceed the live vertex space if the stream referenced them
     * before growth — such ids are clamped out).  `dirty` must be
     * strictly increasing (checked in debug builds: a repeated id would
     * be two workers writing one row) and must cover every vertex whose
     * edge arrays changed since the previous publish;
     * stream::PendingAccumulator::hand_off provides exactly that.  Of
     * each dirty vertex's rows only the part at or after the row's change
     * mark is copied, and the marks are reset — so one SnapshotStore per
     * live store.  On the first publication (epoch_ == 0) the whole live
     * graph is copied regardless of `dirty` and every mark is cleared, so
     * a store can attach to a pre-loaded graph.  Aborts unless the live
     * epoch advanced since the previous publication (the caller's
     * advance_epoch): a caller that never advanced would otherwise have
     * every publication taken for a first one, recopying the whole graph.
     *
     * The rows are refreshed on `pool` in chunks of @ref kPublishChunk
     * vertices; the output is the same as the one-thread overload's.
     */
    template <typename Live>
        requires GraphStore<Live>
    PublishStats
    publish(Live& live, std::span<const VertexId> dirty, ThreadPool& pool)
    {
        return publish_with(
            live, dirty, [&pool](std::size_t count, const auto& refresh) {
                pool.parallel_chunks(
                    0, count,
                    [&refresh](std::size_t, std::size_t lo, std::size_t hi) {
                        refresh(lo, hi);
                    },
                    kPublishChunk);
            });
    }

    /** The same publication, on the caller's thread. */
    template <typename Live>
        requires GraphStore<Live>
    PublishStats
    publish(Live& live, std::span<const VertexId> dirty)
    {
        return publish_with(
            live, dirty, [](std::size_t count, const auto& refresh) {
                refresh(0, count);
            });
    }

    /**
     * Vertices per chunk of a pooled publication.  A dirty set no larger
     * than one chunk is refreshed on the caller without waking the pool.
     */
    static constexpr std::size_t kPublishChunk = 256;

    /** View of the latest publication (epoch 0 until first publish). */
    SnapshotView view() const { return {&out_, &in_, num_edges_, epoch_}; }

    EpochId epoch() const { return epoch_; }

  private:
    /**
     * Both publish overloads: grow the vertex space, then run the row
     * refresh over positions [0, count) of the visit list through
     * `for_chunks(count, refresh)`, which must call `refresh(lo, hi)` on
     * disjoint ranges covering [0, count) and return after the last.
     */
    template <typename Live, typename ForChunks>
    PublishStats
    publish_with(Live& live, std::span<const VertexId> dirty,
                 ForChunks&& for_chunks)
    {
        IGS_CHECK_MSG(live.epoch() > epoch_,
                      "SnapshotStore::publish: advance the live epoch "
                      "before every publication");
        IGS_DCHECK(std::adjacent_find(dirty.begin(), dirty.end(),
                                      std::greater_equal<VertexId>()) ==
                   dirty.end());
        PublishStats stats;
        const std::size_t n = live.num_vertices();
        const bool first = epoch_ == 0;
        if (n > out_.size()) {
            stats.grown_vertices = n - out_.size();
            // Vertex-space growth is rare (between batches) and the whole
            // point of publication.  igs-lint: allow(hot-path-alloc)
            out_.resize(n);
            // igs-lint: allow(hot-path-alloc)
            in_.resize(n);
        }
        // The first publication visits every vertex and copies each row
        // whole; later ones visit the dirty ids inside the vertex space
        // (a sorted prefix of `dirty`) from their change marks.
        const std::span<const VertexId> visit(
            dirty.begin(), std::lower_bound(dirty.begin(), dirty.end(), n));
        const std::size_t count = first ? n : visit.size();
        std::atomic<EdgeId> copied{0};
        const auto refresh = [&](std::size_t lo, std::size_t hi) {
            EdgeId chunk_copied = 0;
            for (std::size_t i = lo; i < hi; ++i) {
                const VertexId v = first ? static_cast<VertexId>(i) : visit[i];
                for (Direction dir : {Direction::kOut, Direction::kIn}) {
                    const std::uint32_t mark =
                        first ? 0 : live.take_change_mark(v, dir);
                    if (mark == kRowUnchanged) {
                        continue;
                    }
                    auto& rows = dir == Direction::kOut ? out_ : in_;
                    chunk_copied +=
                        refresh_row(rows[v], live.edges(v, dir), mark);
                }
            }
            copied.fetch_add(chunk_copied, std::memory_order_relaxed);
        };
        for_chunks(count, refresh);
        if (first) {
            live.clear_change_marks();
        }
        stats.copied_edges = copied.load(std::memory_order_relaxed);
        stats.dirty_vertices = first ? n : dirty.size();
        num_edges_ = live.num_edges();
        epoch_ = live.epoch();
        stats.epoch = epoch_;
        return stats;
    }

    /**
     * Bring snapshot row `snap` level with live row `live`, whose entries
     * before index `mark` are unchanged since the last publication.
     * Returns the entries written.
     */
    static EdgeId
    refresh_row(std::vector<Neighbor>& snap, std::span<const Neighbor> live,
                std::uint32_t mark)
    {
        const std::size_t size = live.size();
        if (size > snap.capacity()) {
            // Outgrew its slack: one reallocation by the shared growth
            // rule, and the whole row goes into the new buffer.
            snap.clear();
            reserve_row(snap, size);
            snap.assign(live.begin(), live.end());
            return size;
        }
        const std::size_t from =
            std::min({static_cast<std::size_t>(mark), snap.size(), size});
        // Within the capacity checked above; never reallocates.
        // igs-lint: allow(hot-path-alloc)
        snap.resize(size);
        std::copy(live.begin() + from, live.end(), snap.begin() + from);
        return size - from;
    }

    std::vector<std::vector<Neighbor>> out_;
    std::vector<std::vector<Neighbor>> in_;
    EdgeId num_edges_ = 0;
    EpochId epoch_ = 0;
};

} // namespace igs::graph

#endif // IGS_GRAPH_SNAPSHOT_VIEW_H
