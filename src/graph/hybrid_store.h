/**
 * @file
 * GraphTango-style three-tier hybrid adjacency store.
 *
 * Where @ref igs::graph::AdjacencyList pays an O(degree) duplicate-check
 * scan on every insert (the cost the paper's USC/HAU techniques attack
 * microarchitecturally), this store removes the scan *structurally* with a
 * degree-adaptive per-vertex representation:
 *
 *  - tier 0 (inline): up to @ref HybridEdgeSet::kInlineCapacity edges live
 *    directly in the vertex record — no pointer chase for the tiny-degree
 *    majority of a power-law graph;
 *  - tier 1 (sorted): a sorted heap-allocated edge array; duplicate checks
 *    are an O(log degree) binary search;
 *  - tier 2 (hashed): edges stay in a dense append-order array (so
 *    iteration remains a contiguous scan) plus an open-addressed hash
 *    index mapping neighbor id -> array position; duplicate checks are
 *    O(1) expected.
 *
 * Promotion is one-way on degree growth (tier 0 -> 1 at the inline
 * capacity, tier 1 -> 2 at StoreTuning::hybrid_sorted_threshold).
 * Deletions never demote: a hub that shrinks keeps its index, avoiding
 * representation thrash on churn-heavy streams (see DESIGN.md §12).
 *
 * Engine-wide update semantics are identical to AdjacencyList (weight
 * accumulation on duplicate insert, insertions before deletions per batch,
 * delete-of-missing is a no-op), so the two stores are equivalent under
 * any update schedule — property-tested in tests/test_hybrid_store.cc.
 *
 * All three tiers expose the edge set as one contiguous
 * std::span<const Neighbor>, so the store satisfies graph::GraphStore and
 * plugs into SnapshotStore publication and every analytics read path
 * unchanged.  Like AdjacencyList it keeps per-row change marks, and its
 * heap arrays grow by the shared rule of graph/edge_rows.h.  Telemetry: core.graph.tier_* (registered lazily on first
 * use so runs that never construct a HybridStore keep their golden
 * registry snapshots unchanged).
 */
#ifndef IGS_GRAPH_HYBRID_STORE_H
#define IGS_GRAPH_HYBRID_STORE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/flat_table.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "graph/adjacency_list.h" // ApplyResult
#include "graph/edge_rows.h"
#include "graph/graph_store.h"
#include "graph/store_tuning.h"
#include "graph/vertex_id_map.h"

namespace igs::graph {

/**
 * Per-vertex three-tier edge container.  Pure data structure: tier
 * thresholds come in per call and telemetry is recorded by the owning
 * @ref HybridStore, so the container itself stays trivially testable.
 */
class HybridEdgeSet {
  public:
    /** Edges stored inline in the vertex record before the first
     *  promotion.  A compile-time layout property, not a tunable. */
    static constexpr std::uint32_t kInlineCapacity = 4;

    enum Tier : std::uint8_t { kInline = 0, kSorted = 1, kHashed = 2 };

    std::uint8_t tier() const { return tier_; }
    std::uint32_t size() const { return count_; }

    /**
     * Duplicate-check then insert (weight accumulates on a hit).
     * `sorted_threshold` is the tier-1 -> tier-2 promotion degree
     * (StoreTuning::hybrid_sorted_threshold).  ApplyResult::probes counts
     * the id comparisons the duplicate check performed — a linear-scan
     * count at tier 0, a binary-search count at tier 1, a cluster-probe
     * count at tier 2.  ApplyResult::written_at is 0 for any write at
     * tier 0 or a promotion to tier 1, the hit or insert position at
     * tier 1, and the hit position or the appended slot at tier 2.
     */
    ApplyResult insert(Neighbor nbr, std::uint32_t sorted_threshold);

    /** Remove if present (no-op otherwise); never demotes the tier.
     *  ApplyResult::written_at is 0 at tier 0, the erase position at
     *  tier 1 and the swap-filled hole at tier 2. */
    ApplyResult remove(VertexId nbr_id);

    /** Contiguous view of the stored edges (any tier). */
    std::span<const Neighbor>
    view() const
    {
        return tier_ == kInline
                   ? std::span<const Neighbor>(inline_, count_)
                   : std::span<const Neighbor>(heap_.data(), count_);
    }

    /** Mutable view (USC coalesced scan; caller owns synchronization). */
    std::span<Neighbor>
    view_mut()
    {
        return tier_ == kInline
                   ? std::span<Neighbor>(inline_, count_)
                   : std::span<Neighbor>(heap_.data(), count_);
    }

    /** Sorted materialized copy (tests / CSR building). */
    std::vector<Neighbor> sorted() const;

  private:
    void promote_to_sorted();
    void promote_to_hash();
    /** Double the hash index and rebuild it from the dense array. */
    void grow_index();
    ApplyResult hash_insert(Neighbor nbr);
    ApplyResult hash_remove(VertexId nbr_id);

    static std::uint64_t
    hash_id(VertexId id)
    {
        std::uint64_t x = id;
        x ^= x >> 16;
        x *= 0x7feb352dull;
        x ^= x >> 15;
        x *= 0x846ca68bull;
        x ^= x >> 16;
        return x;
    }

    Neighbor inline_[kInlineCapacity] = {};
    /** Tier 1: sorted by id.  Tier 2: dense, append order. */
    std::vector<Neighbor> heap_;
    /** Tier 2 only: open-addressed slots holding position+1 (0 = empty). */
    std::vector<std::uint32_t> index_;
    std::uint32_t count_ = 0;
    std::uint8_t tier_ = kInline;
};

/**
 * Dynamic directed graph over @ref HybridEdgeSet per vertex/direction.
 * Drop-in peer of AdjacencyList for the real-time engine: same locking
 * surface, same latest_bid OCA support, same epoch tokens, same
 * @ref apply_coalesced USC surface (here the tiered insert keeps the hash
 * index consistent with the dense array), same change marks.
 */
class HybridStore {
  public:
    explicit HybridStore(std::size_t num_vertices = 0,
                         const StoreTuning& tuning = {});

    /** Movable (single-threaded only — not during a parallel update).
     *  Mirrors AdjacencyList: the moved-from store is left empty. */
    HybridStore(HybridStore&& other) noexcept
        : out_(std::move(other.out_)), in_(std::move(other.in_)),
          out_locks_(std::move(other.out_locks_)),
          in_locks_(std::move(other.in_locks_)),
          latest_bid_(std::move(other.latest_bid_)),
          latest_bid_size_(other.latest_bid_size_),
          epoch_(other.epoch_), tuning_(other.tuning_),
          map_(std::move(other.map_)), marks_(std::move(other.marks_)),
          num_edges_(other.num_edges_.exchange(0, std::memory_order_relaxed))
    {
        other.latest_bid_size_ = 0;
        other.epoch_ = 0;
        other.map_.reset();
    }

    HybridStore& operator=(HybridStore&&) = delete;

    /** Replace the tier thresholds.  Takes effect on future promotions
     *  only; call before the first insert for fully uniform behavior. */
    void set_tuning(const StoreTuning& tuning) { tuning_ = tuning; }
    const StoreTuning& tuning() const { return tuning_; }

    std::size_t num_vertices() const { return out_.size(); }
    EdgeId num_edges() const { return num_edges_; }

    /** Grow vertex space (single-threaded, between batches). */
    void ensure_vertices(std::size_t n);

    /** See AdjacencyList::apply_insert / apply_remove. */
    ApplyResult apply_insert(VertexId v, Neighbor nbr, Direction dir);
    ApplyResult apply_remove(VertexId v, VertexId nbr_id, Direction dir);

    /**
     * USC coalesced apply (stream/updaters.h, Fig 8 steps 2-4): one scan
     * of `v`'s edge data draining in-place weight matches from `table`,
     * then the remaining table entries are inserted (tier promotions
     * included).  Returns the number of appended edges; `num_edges` is
     * updated internally.  Caller owns synchronization (run ownership).
     */
    std::size_t apply_coalesced(VertexId v, Direction dir,
                                FlatWeightTable& table);

    /** Per-vertex/per-direction lock for the baseline update path.
     *  Indexed by physical row like AdjacencyList::lock. */
    Spinlock&
    lock(VertexId v, Direction dir)
    {
        const VertexId p = map_.to_physical(v);
        return dir == Direction::kOut ? out_locks_[p] : in_locks_[p];
    }

    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).size();
    }

    /** Immutable contiguous view of `v`'s edges (any tier). */
    std::span<const Neighbor>
    edges(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).view();
    }

    const HybridEdgeSet&
    edge_set(VertexId v, Direction dir) const
    {
        const VertexId p = map_.to_physical(v);
        return dir == Direction::kOut ? out_[p] : in_[p];
    }

    /** Current representation tier of `v`'s `dir` edge set. */
    std::uint8_t tier(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).tier();
    }

    /** See AdjacencyList::latest_bid / exchange_latest_bid. */
    std::uint64_t
    latest_bid(VertexId v) const
    {
        return latest_bid_[v].load(std::memory_order_relaxed);
    }

    std::uint64_t
    exchange_latest_bid(VertexId v, std::uint64_t bid)
    {
        return latest_bid_[v].exchange(bid, std::memory_order_relaxed);
    }

    /** Epoch token (see AdjacencyList::epoch). */
    EpochId epoch() const { return epoch_; }
    EpochId advance_epoch() { return ++epoch_; }

    /** See AdjacencyList::take_change_mark / clear_change_marks. */
    std::uint32_t
    take_change_mark(VertexId v, Direction dir)
    {
        return marks_.take(map_.to_physical(v), dir);
    }

    void clear_change_marks() { marks_.clear(); }

    /** Sorted copy of an edge set (tests / CSR building). */
    std::vector<Neighbor>
    sorted_edges(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).sorted();
    }

    /** See AdjacencyList::apply_renumber — move-permutes the per-vertex
     *  HybridEdgeSet records (any tier; the heap arrays, hash indexes and
     *  change marks travel with them).  Declared backend capability
     *  (tools/layers.toml [semantic.backends.HybridStore]). */
    void apply_renumber(std::span<const VertexId> l2p);

    /** The logical/physical id map (identity until `apply_renumber`). */
    const VertexIdMap& id_map() const { return map_; }

    /** Out-direction tier population (vertices per tier). */
    struct TierCensus {
        std::size_t vertices[3] = {0, 0, 0};
    };
    TierCensus tier_census() const;

    /** Refresh the core.graph.tier*_vertices gauges from a fresh census.
     *  The engine calls this at each epoch publication. */
    void publish_tier_telemetry() const;

    /**
     * Structural equality against any store exposing
     * `num_vertices`/`sorted_edges` (order-insensitive; weights within
     * the same tolerance AdjacencyList::same_topology uses).
     */
    template <typename Other>
    bool
    same_topology(const Other& other) const
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
                    if (a[i].id != b[i].id) {
                        return false;
                    }
                    const float d = a[i].weight - b[i].weight;
                    if (d > 1e-4f || d < -1e-4f) {
                        return false;
                    }
                }
            }
        }
        return true;
    }

  private:
    /** insert/remove wrappers that record tier telemetry. */
    ApplyResult insert_into(HybridEdgeSet& set, Neighbor nbr);
    ApplyResult remove_from(HybridEdgeSet& set, VertexId nbr_id);

    std::vector<HybridEdgeSet> out_;
    std::vector<HybridEdgeSet> in_;
    SpinlockArray out_locks_;
    SpinlockArray in_locks_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> latest_bid_;
    std::size_t latest_bid_size_ = 0;
    EpochId epoch_ = 0;
    StoreTuning tuning_;
    VertexIdMap map_;
    ChangeMarks marks_;
    std::atomic<EdgeId> num_edges_{0};
};

static_assert(GraphStore<HybridStore>,
              "HybridStore must satisfy the versioned read-path concept");

} // namespace igs::graph

#endif // IGS_GRAPH_HYBRID_STORE_H
