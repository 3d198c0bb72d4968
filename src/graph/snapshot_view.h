/**
 * @file
 * Immutable snapshot of a live graph, maintained by copy-on-publish.
 *
 * The pipeline (DESIGN.md §11) computes on epoch k's @ref SnapshotView
 * while the live store ingests batch k+1.  To keep publication cheap the
 * @ref SnapshotStore never copies the whole graph in steady state: the
 * engine hands it the dirty-vertex set accumulated since the previous
 * publication (stream::PendingWork::affected — every src/dst of every
 * batch edge, deduplicated), and of those vertices' rows it copies only
 * the part that changed.  Each live store keeps a change mark per row and
 * direction — the lowest index written since the last publication
 * (graph/edge_rows.h) — so a row is skipped when unchanged and otherwise
 * refreshed from its mark: an append-only epoch copies the appended
 * entries, not the row.  Snapshot rows grow by the same rule as live
 * rows (a quarter of slack), so a growing row rarely reallocates; when
 * it does, it is copied whole into the new buffer.
 *
 * Thread contract: `publish` mutates the store and must never run
 * concurrently with readers of an outstanding @ref SnapshotView.  The
 * engine guarantees this by joining the in-flight compute round before
 * every publication (the same join implements backpressure — ingest can
 * run at most one epoch ahead of compute).
 */
#ifndef IGS_GRAPH_SNAPSHOT_VIEW_H
#define IGS_GRAPH_SNAPSHOT_VIEW_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
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
 * Read-only view of the most recent publication.  Cheap to copy (two
 * pointers + counters); valid until the owning SnapshotStore's next
 * `publish` or destruction.  Satisfies graph::GraphStore.
 */
class SnapshotView {
  public:
    SnapshotView() = default;

    std::size_t num_vertices() const { return out_ ? out_->size() : 0; }
    EdgeId num_edges() const { return num_edges_; }
    /** Epoch this view was published at (0 = default-constructed/empty). */
    EpochId epoch() const { return epoch_; }

    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        // Snapshot rows are copies of live adjacency rows, whose degree
        // is bounded by the uint32 VertexId space by construction.
        // igs-lint: allow(unproven-narrowing)
        return static_cast<std::uint32_t>(edges(v, dir).size());
    }

    const std::vector<Neighbor>&
    edges(VertexId v, Direction dir) const
    {
        const auto* arrays = dir == Direction::kOut ? out_ : in_;
        IGS_DCHECK(arrays != nullptr && v < arrays->size());
        return (*arrays)[v];
    }

  private:
    friend class SnapshotStore;
    SnapshotView(const std::vector<std::vector<Neighbor>>* out,
                 const std::vector<std::vector<Neighbor>>* in,
                 EdgeId num_edges, EpochId epoch)
        : out_(out), in_(in), num_edges_(num_edges), epoch_(epoch)
    {
    }

    const std::vector<std::vector<Neighbor>>* out_ = nullptr;
    const std::vector<std::vector<Neighbor>>* in_ = nullptr;
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
     * deduplicated and must cover every vertex whose edge arrays changed
     * since the previous publish; stream::PendingAccumulator::hand_off
     * provides exactly that.  Of each dirty vertex's rows only the part
     * at or after the row's change mark is copied, and the marks are
     * reset — so one SnapshotStore per live store.  On the first
     * publication (epoch_ == 0) the whole live graph is copied regardless
     * of `dirty` and every mark is cleared, so a store can attach to a
     * pre-loaded graph.  Aborts unless the live epoch advanced since the
     * previous publication (the caller's advance_epoch): a caller that
     * never advanced would otherwise have every publication taken for a
     * first one, recopying the whole graph.
     */
    template <typename Live>
        requires GraphStore<Live>
    PublishStats
    publish(Live& live, std::span<const VertexId> dirty)
    {
        IGS_CHECK_MSG(live.epoch() > epoch_,
                      "SnapshotStore::publish: advance the live epoch "
                      "before every publication");
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
        if (first) {
            for (VertexId v = 0; v < n; ++v) {
                stats.copied_edges +=
                    refresh_row(out_[v], live.edges(v, Direction::kOut), 0) +
                    refresh_row(in_[v], live.edges(v, Direction::kIn), 0);
            }
            live.clear_change_marks();
            stats.dirty_vertices = n;
        } else {
            for (VertexId v : dirty) {
                if (v >= n) {
                    continue;
                }
                for (Direction dir : {Direction::kOut, Direction::kIn}) {
                    const std::uint32_t mark = live.take_change_mark(v, dir);
                    if (mark == kRowUnchanged) {
                        continue;
                    }
                    auto& rows = dir == Direction::kOut ? out_ : in_;
                    stats.copied_edges +=
                        refresh_row(rows[v], live.edges(v, dir), mark);
                }
            }
            stats.dirty_vertices = dirty.size();
        }
        num_edges_ = live.num_edges();
        epoch_ = live.epoch();
        stats.epoch = epoch_;
        return stats;
    }

    /** View of the latest publication (epoch 0 until first publish). */
    SnapshotView view() const { return {&out_, &in_, num_edges_, epoch_}; }

    EpochId epoch() const { return epoch_; }

  private:
    /**
     * Bring snapshot row `snap` level with live row `live`, whose entries
     * before index `mark` are unchanged since the last publication.
     * Returns the entries written.
     */
    template <typename Row>
    static EdgeId
    refresh_row(std::vector<Neighbor>& snap, const Row& live,
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
