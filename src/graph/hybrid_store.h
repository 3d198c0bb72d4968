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
 *    index mapping neighbor id -> array position (graph/edge_index.h,
 *    the index DegreeAwareHash's high-degree rows use too); duplicate
 *    checks are O(1) expected.
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
 * All three tiers keep the edge set contiguous, so the store's edges()
 * is a std::span<const Neighbor> like every store's, and it plugs into
 * SnapshotStore publication and every analytics read path unchanged.
 * The vertex table around the edge sets — locks, bids, epoch, change
 * marks — is the one every store shares (graph/live_store.h), and the
 * heap arrays grow by the shared rule of graph/edge_rows.h.  Telemetry:
 * core.graph.tier_* (registered lazily on first use so runs that never
 * construct a HybridStore keep their golden registry snapshots
 * unchanged).
 */
#ifndef IGS_GRAPH_HYBRID_STORE_H
#define IGS_GRAPH_HYBRID_STORE_H

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_table.h"
#include "common/types.h"
#include "graph/edge_index.h"
#include "graph/graph_store.h"
#include "graph/live_store.h"
#include "graph/store_tuning.h"

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

    /** Position of `id` in the set, or size() if absent, by the tier's
     *  own lookup (inline scan, binary search, hash probe).  Writes
     *  nothing: no index growth, no promotion. */
    std::uint32_t position_of(VertexId id) const;

    /** The stored edges, contiguous at every tier (the read path's
     *  span). */
    const Neighbor*
    begin() const
    {
        return tier_ == kInline ? inline_ : heap_.data();
    }
    const Neighbor* end() const { return begin() + count_; }

    /** Mutable view (USC coalesced scan; caller owns synchronization). */
    std::span<Neighbor>
    view_mut()
    {
        return {tier_ == kInline ? inline_ : heap_.data(), count_};
    }

  private:
    void promote_to_sorted();

    Neighbor inline_[kInlineCapacity] = {};
    /** Tier 1: sorted by id.  Tier 2: dense, append order. */
    std::vector<Neighbor> heap_;
    /** Tier 2 only: the neighbor-id index over heap_. */
    EdgeIndex index_;
    std::uint32_t count_ = 0;
    std::uint8_t tier_ = kInline;
};

/**
 * Dynamic directed graph over @ref HybridEdgeSet per vertex/direction.
 * Drop-in peer of AdjacencyList for the real-time engine: the same
 * vertex table (locks, latest_bid, epoch, change marks) and the
 * same @ref apply_coalesced USC surface (here the tiered insert keeps
 * the hash index consistent with the dense array).
 */
class HybridStore : public LiveStore<HybridEdgeSet> {
  public:
    explicit HybridStore(std::size_t num_vertices = 0,
                         const StoreTuning& tuning = {});

    /** Single-threaded, like LiveStore's move: the promotion counts move
     *  with the rows, and the moved-from store (0 vertices) reads 0. */
    HybridStore(HybridStore&& other) noexcept;

    /** Replace the tier thresholds.  Takes effect on future promotions
     *  only; call before the first insert for fully uniform behavior. */
    void set_tuning(const StoreTuning& tuning) { tuning_ = tuning; }
    const StoreTuning& tuning() const { return tuning_; }

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

    /**
     * apply_coalesced of a one-entry table (the USC kernel's one-edge
     * insert runs), without the table: a match accumulates in place at
     * the tier's lookup position and records no probe sample, a miss goes
     * through the tiered insert — the writes, change marks and telemetry
     * apply_coalesced makes for that entry.  apply_insert differs from it
     * on a match (an inline hit marks from 0, the hashed tier may grow
     * its index first, and a probe sample is recorded).
     */
    ApplyResult apply_coalesced_one(VertexId v, Direction dir, Neighbor nbr);

    /** Current representation tier of `v`'s `dir` edge set. */
    std::uint8_t tier(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).tier();
    }

    /** Out-direction tier population (vertices per tier). */
    struct TierCensus {
        std::size_t vertices[3] = {0, 0, 0};
    };
    /** The census by a scan of every out-row (the test oracle of the
     *  promotion counts publish_tier_telemetry reads). */
    TierCensus tier_census() const;

    /**
     * Set the core.graph.tier*_vertices gauges to the out-direction tier
     * population.  O(1): tiers only promote, so the population follows
     * from the out-row promotions counted as they happen (hashed =
     * promotions to hash, sorted = to sorted − to hash, inline = the
     * remaining vertices).  Call between batches; the engine calls it at
     * each epoch publication.
     */
    void publish_tier_telemetry() const;

  private:
    /** insert/remove wrappers that record tier telemetry; an insert into
     *  an out-row also counts the row's promotions. */
    ApplyResult insert_into(HybridEdgeSet& set, Neighbor nbr, Direction dir);
    ApplyResult remove_from(HybridEdgeSet& set, VertexId nbr_id);

    StoreTuning tuning_;
    /** Out-rows promoted out of the inline tier / into the hashed tier.
     *  Counted by the update's pool workers (relaxed: read between
     *  batches, after the update's join). */
    std::atomic<std::size_t> out_to_sorted_{0};
    std::atomic<std::size_t> out_to_hash_{0};
};

static_assert(GraphStore<HybridStore>,
              "HybridStore must satisfy the versioned read-path concept");

} // namespace igs::graph

#endif // IGS_GRAPH_HYBRID_STORE_H
