/**
 * @file
 * Adjacency-list dynamic graph structure ("AS" in the paper / SAGA-Bench).
 *
 * Per vertex, two growable edge arrays (out- and in-neighbors) plus a
 * per-vertex/per-direction lock used only by the baseline (non-reordered)
 * update path.  Duplicate checking is a linear scan of the vertex's edge
 * array — the cost the paper's USC and HAU techniques target.
 *
 * Engine-wide update semantics (shared by every update path so they can be
 * cross-checked for equivalence):
 *  - inserting an edge that already exists *accumulates* its weight
 *    (commutative, hence deterministic under any parallel schedule);
 *  - each batch applies all insertions before any deletions (the paper's
 *    HAU ordering rule, adopted globally);
 *  - deletion of a non-existent edge is a no-op.
 *
 * The structure also carries the per-vertex `latest_bid` field the paper
 * adds for OCA's inter-batch overlap measurement (§5), and per-row change
 * marks that let snapshot publication copy only what changed
 * (graph/edge_rows.h).
 */
#ifndef IGS_GRAPH_ADJACENCY_LIST_H
#define IGS_GRAPH_ADJACENCY_LIST_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/flat_table.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "graph/edge_rows.h"
#include "graph/vertex_id_map.h"

namespace igs::graph {

/** Outcome of a single duplicate-check-and-apply operation. */
struct ApplyResult {
    /** True if the edge already existed (weight accumulated / deletable). */
    bool found = false;
    /** Elements examined by the duplicate-check scan. */
    std::uint32_t probes = 0;
    /** Edge-array length *before* the operation (drives lock-cost models). */
    std::uint32_t len_before = 0;
    /** Lowest row index the operation wrote (a weight accumulated, an
     *  append, a shifted or swap-filled slot); kRowUnchanged if none.
     *  The store lowers the row's change mark with it. */
    std::uint32_t written_at = kRowUnchanged;
};

/** Dynamic directed graph stored as per-vertex adjacency arrays. */
class AdjacencyList {
  public:
    /** Create a graph over vertices [0, num_vertices). */
    explicit AdjacencyList(std::size_t num_vertices = 0);

    /**
     * Movable (single-threaded only — not during a parallel update).
     * The moved-from graph is left empty and reusable: `num_edges_` is
     * transferred with an exchange so the source reads 0 afterwards, and
     * its `latest_bid` bookkeeping is cleared to match the stolen array.
     */
    AdjacencyList(AdjacencyList&& other) noexcept
        : out_(std::move(other.out_)), in_(std::move(other.in_)),
          out_locks_(std::move(other.out_locks_)),
          in_locks_(std::move(other.in_locks_)),
          latest_bid_(std::move(other.latest_bid_)),
          latest_bid_size_(other.latest_bid_size_),
          epoch_(other.epoch_), map_(std::move(other.map_)),
          marks_(std::move(other.marks_)),
          num_edges_(other.num_edges_.exchange(0, std::memory_order_relaxed))
    {
        other.latest_bid_size_ = 0;
        other.epoch_ = 0;
        other.map_.reset();
    }

    /**
     * Move-assignment is deliberately deleted: the implicit version was
     * never generated (the atomic member suppresses it), so `a = move(b)`
     * silently failed to compile — make the contract explicit.
     */
    AdjacencyList& operator=(AdjacencyList&&) = delete;

    /** Number of vertex slots. */
    std::size_t num_vertices() const { return out_.size(); }

    /** Total directed edge count (each streamed edge contributes one
     *  out-entry and one in-entry; this counts out-entries). */
    EdgeId num_edges() const { return num_edges_; }

    /**
     * Grow the vertex space to at least `n` slots.  Must be called
     * single-threaded (between batches); existing edges are preserved.
     */
    void ensure_vertices(std::size_t n);

    /**
     * Duplicate-check then insert `nbr` into `v`'s `dir` edge array.
     * If present, accumulates the weight.  Caller is responsible for
     * synchronization (see `lock()`).
     */
    ApplyResult apply_insert(VertexId v, Neighbor nbr, Direction dir);

    /**
     * Remove the edge to `nbr_id` from `v`'s `dir` edge array if present
     * (swap-with-last removal; edge order is not meaningful).
     */
    ApplyResult apply_remove(VertexId v, VertexId nbr_id, Direction dir);

    /** Per-vertex/per-direction lock for the baseline update path.
     *  Lock index follows row placement so lock and row agree under any
     *  map; locks are stateless between batches, so a renumber (which
     *  runs between batches) never needs to permute them. */
    Spinlock&
    lock(VertexId v, Direction dir)
    {
        const VertexId p = map_.to_physical(v);
        return dir == Direction::kOut ? out_locks_[p]
                                      : in_locks_[p];
    }

    /** Degree of `v` in direction `dir`. */
    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        const VertexId p = map_.to_physical(v);
        const auto& e = dir == Direction::kOut ? out_[p] : in_[p];
        return static_cast<std::uint32_t>(e.size());
    }

    /** Immutable view of `v`'s edge array. */
    const std::vector<Neighbor>&
    edges(VertexId v, Direction dir) const
    {
        const VertexId p = map_.to_physical(v);
        return dir == Direction::kOut ? out_[p] : in_[p];
    }

    /**
     * USC coalesced apply (stream/updaters.h, Fig 8 steps 2-4): one scan
     * of `v`'s edge array draining in-place weight matches from `table`,
     * then the remaining table entries are appended in the table's
     * iteration order.  Returns the number of appended edges; `num_edges`
     * is updated internally.  Caller owns synchronization (run
     * ownership).
     */
    std::size_t apply_coalesced(VertexId v, Direction dir,
                                FlatWeightTable& table);

    /** OCA support: batch id in which `v` last appeared as a source. */
    std::uint64_t
    latest_bid(VertexId v) const
    {
        return latest_bid_[v].load(std::memory_order_relaxed);
    }

    /**
     * Atomically set `v`'s latest batch id, returning the previous value.
     * The exchange makes OCA's "first touch in this batch" detection
     * exactly-once under parallel updates.
     */
    std::uint64_t
    exchange_latest_bid(VertexId v, std::uint64_t bid)
    {
        return latest_bid_[v].exchange(bid, std::memory_order_relaxed);
    }

    /**
     * Epoch token (graph/graph_store.h).  Counts compute hand-offs: the
     * engine bumps it via `advance_epoch()` each time it publishes a
     * snapshot.  Plain (non-atomic) — publication happens on the ingest
     * thread between batches, never concurrently with an update phase.
     */
    EpochId epoch() const { return epoch_; }

    /** Advance to the next epoch and return the new token. */
    EpochId advance_epoch() { return ++epoch_; }

    /**
     * Lowest index of `v`'s `dir` row written since the previous call
     * (kRowUnchanged if none), resetting the mark.  Read only by
     * SnapshotStore::publish, between batches.
     */
    std::uint32_t
    take_change_mark(VertexId v, Direction dir)
    {
        return marks_.take(map_.to_physical(v), dir);
    }

    /** Mark every row unchanged (after a whole-graph publication). */
    void clear_change_marks() { marks_.clear(); }

    /** Sorted copy of an edge array (test/diff helper). */
    std::vector<Neighbor> sorted_edges(VertexId v, Direction dir) const;

    /** Structural equality against another graph (order-insensitive). */
    bool same_topology(const AdjacencyList& other) const;

    /**
     * Re-place adjacency rows under a new logical->physical assignment
     * (a permutation of [0, num_vertices()); see LocalityRenumberer).
     * Rows are move-permuted with their change marks — edge payloads
     * (logical neighbor ids) are untouched, and `latest_bid` stays
     * logical-indexed, so every public read is invariant under this call.  Single-threaded, between
     * batches, like `ensure_vertices`.  Declared backend capability
     * (tools/layers.toml [semantic.backends.AdjacencyList]).
     */
    void apply_renumber(std::span<const VertexId> l2p);

    /** The logical/physical id map (identity until `apply_renumber`). */
    const VertexIdMap& id_map() const { return map_; }

  private:
    std::vector<std::vector<Neighbor>> out_;
    std::vector<std::vector<Neighbor>> in_;
    SpinlockArray out_locks_;
    SpinlockArray in_locks_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> latest_bid_;
    std::size_t latest_bid_size_ = 0;
    EpochId epoch_ = 0;
    VertexIdMap map_;
    ChangeMarks marks_;
    std::atomic<EdgeId> num_edges_{0};
};

} // namespace igs::graph

#endif // IGS_GRAPH_ADJACENCY_LIST_H
