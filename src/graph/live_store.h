/**
 * @file
 * LiveStore — the vertex table every mutable graph store shares.
 *
 * AdjacencyList, HybridStore and DegreeAwareHash differ only in the
 * container that holds one vertex's edges in one direction: a plain
 * `std::vector<Neighbor>` scanned linearly, GraphTango's three-tier
 * @ref HybridEdgeSet, or SAGA-Bench's degree-aware @ref DahEdgeSet (the
 * two adaptive sets index a high-degree row with one graph::EdgeIndex).
 * Everything around that container lives here once, as GraphTango splits
 * a store into one vertex table and a degree-adaptive edge set per vertex:
 *  - the out/in rows, indexed by vertex id;
 *  - the per-vertex/per-direction locks of the baseline update path;
 *  - the per-vertex `latest_bid` the paper adds for OCA's inter-batch
 *    overlap measurement (§5);
 *  - the edge count, the epoch token (graph/graph_store.h) and the
 *    per-row change marks that let snapshot publication copy only what
 *    changed (graph/edge_rows.h);
 *  - the read path: degree, edges, sorted_edges, same_topology.
 *
 * A store derives from `LiveStore<ItsEdgeSet>` and adds its mutators
 * (apply_insert / apply_remove, and apply_coalesced where it has one),
 * which write rows, change marks and the edge count through the
 * protected members.  An edge set must be default-constructible,
 * nothrow-movable and a contiguous range of Neighbor with `size()`, so
 * every store's read path is a `std::span<const Neighbor>` over the
 * row's own storage (the plain array, HybridEdgeSet's inline record or
 * heap array, DahEdgeSet's dense array).
 *
 * Engine-wide update semantics (shared by every store so the update paths
 * can be cross-checked for equivalence):
 *  - inserting an edge that already exists *accumulates* its weight
 *    (commutative, hence deterministic under any parallel schedule);
 *  - each batch applies all insertions before any deletions (the paper's
 *    HAU ordering rule, adopted globally);
 *  - deletion of a non-existent edge is a no-op.
 */
#ifndef IGS_GRAPH_LIVE_STORE_H
#define IGS_GRAPH_LIVE_STORE_H

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "graph/edge_rows.h"

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

/** Dynamic directed graph: one `EdgeSet` per vertex and direction. */
template <typename EdgeSet>
class LiveStore {
  public:
    /** Number of vertex slots. */
    std::size_t num_vertices() const { return out_.size(); }

    /** Total directed edge count (each streamed edge contributes one
     *  out-entry and one in-entry; this counts out-entries). */
    EdgeId num_edges() const { return num_edges_; }

    /**
     * Grow the vertex space to at least `n` slots.  Must be called
     * single-threaded (between batches); existing edges and bids are
     * preserved.  The bid and lock arrays grow geometrically, so a
     * stream that adds a few vertices per batch pays O(log V)
     * reallocations, not an O(V) copy per growing batch.
     */
    void ensure_vertices(std::size_t n);

    /** Per-vertex/per-direction lock for the baseline update path. */
    Spinlock&
    lock(VertexId v, Direction dir)
    {
        return dir == Direction::kOut ? out_locks_[v] : in_locks_[v];
    }

    /** Degree of `v` in direction `dir`. */
    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        return static_cast<std::uint32_t>(edge_set(v, dir).size());
    }

    /** Immutable view of `v`'s `dir` edges (graph::GraphReadPath).
     *  Invalidated by any mutation of that row. */
    std::span<const Neighbor>
    edges(VertexId v, Direction dir) const
    {
        return edge_set(v, dir);
    }

    /** `v`'s `dir` edge set. */
    const EdgeSet&
    edge_set(VertexId v, Direction dir) const
    {
        return dir == Direction::kOut ? out_[v] : in_[v];
    }

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
        return marks_.take(v, dir);
    }

    /** Mark every row unchanged (after a whole-graph publication). */
    void clear_change_marks() { marks_.clear(); }

    /** Sorted copy of an edge set (tests / diff helper). */
    std::vector<Neighbor> sorted_edges(VertexId v, Direction dir) const;

    /**
     * Structural equality against any store exposing
     * `num_vertices`/`sorted_edges` (order-insensitive; weights within
     * 1e-4).
     */
    template <typename Other>
    bool same_topology(const Other& other) const;

  protected:
    /** Create a graph over vertices [0, num_vertices). */
    explicit LiveStore(std::size_t num_vertices)
    {
        ensure_vertices(num_vertices);
    }

    /**
     * Movable (single-threaded only — not during a parallel update), but
     * not assignable: the atomic edge count rules out the implicit
     * moves.  The moved-from store is left empty and reusable: the edge
     * count is transferred with an exchange so the source reads 0
     * afterwards, and its bid/lock bookkeeping and epoch are reset to
     * match.
     */
    LiveStore(LiveStore&& other) noexcept
        : out_(std::move(other.out_)), in_(std::move(other.in_)),
          out_locks_(std::move(other.out_locks_)),
          in_locks_(std::move(other.in_locks_)),
          latest_bid_(std::move(other.latest_bid_)),
          slots_(std::exchange(other.slots_, 0)),
          epoch_(std::exchange(other.epoch_, 0)),
          marks_(std::move(other.marks_)),
          num_edges_(other.num_edges_.exchange(0, std::memory_order_relaxed))
    {
    }

    /** `v`'s `dir` edge set (the mutators' access). */
    EdgeSet&
    row(VertexId v, Direction dir)
    {
        IGS_DCHECK(v < out_.size());
        return dir == Direction::kOut ? out_[v] : in_[v];
    }

    // A derived store's mutators write rows, change marks and the edge
    // count; the other members belong to this table alone.
    std::vector<EdgeSet> out_;
    std::vector<EdgeSet> in_;
    SpinlockArray out_locks_;
    SpinlockArray in_locks_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> latest_bid_;
    /** Slots allocated in latest_bid_ and both lock arrays. */
    std::size_t slots_ = 0;
    EpochId epoch_ = 0;
    ChangeMarks marks_;
    std::atomic<EdgeId> num_edges_{0};
};

template <typename EdgeSet>
void
LiveStore<EdgeSet>::ensure_vertices(std::size_t n)
{
    if (n <= out_.size()) {
        return;
    }
    out_.resize(n);
    in_.resize(n);
    marks_.grow(n);
    if (n <= slots_) {
        return;
    }
    const std::size_t slots = std::max(n, 2 * slots_);
    auto bids = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    for (std::size_t i = 0; i < slots_; ++i) {
        bids[i].store(latest_bid_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    latest_bid_ = std::move(bids);
    // Locks are only held during a parallel update phase; growing the
    // vertex space happens between batches, so fresh (unlocked) lock
    // arrays are equivalent to the old ones.
    out_locks_.resize(slots);
    in_locks_.resize(slots);
    slots_ = slots;
}

template <typename EdgeSet>
std::vector<Neighbor>
LiveStore<EdgeSet>::sorted_edges(VertexId v, Direction dir) const
{
    const std::span<const Neighbor> row = edges(v, dir);
    std::vector<Neighbor> copy(row.begin(), row.end());
    std::sort(copy.begin(), copy.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
    return copy;
}

template <typename EdgeSet>
template <typename Other>
bool
LiveStore<EdgeSet>::same_topology(const Other& other) const
{
    if (num_vertices() != other.num_vertices()) {
        return false;
    }
    for (VertexId v = 0; v < num_vertices(); ++v) {
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const auto a = sorted_edges(v, dir);
            const auto b = other.sorted_edges(v, dir);
            if (a.size() != b.size()) {
                return false;
            }
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (a[i].id != b[i].id ||
                    std::abs(a[i].weight - b[i].weight) > 1e-4f) {
                    return false;
                }
            }
        }
    }
    return true;
}

} // namespace igs::graph

#endif // IGS_GRAPH_LIVE_STORE_H
