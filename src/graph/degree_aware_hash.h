/**
 * @file
 * Degree-Aware Hashing (DAH) dynamic graph structure.
 *
 * The alternative SAGA-Bench structure the paper compares against in
 * §6.2.3: low-degree vertices keep a plain edge array (cache-friendly, no
 * hashing overhead); once a vertex's degree crosses a threshold its edge
 * array is indexed by an open-addressed hash table (graph/edge_index.h)
 * so duplicate checks become O(1) instead of an O(degree) scan.  The
 * edges stay in the dense array, as in HybridStore's tier 2, so every
 * row reads as one contiguous span.
 *
 * The vertex table around the edge sets — locks, latest_bid, epoch,
 * change marks — is the one every store shares
 * (graph/live_store.h), and so are the engine-wide update semantics
 * (weight accumulation on duplicates, insertions before deletions).
 */
#ifndef IGS_GRAPH_DEGREE_AWARE_HASH_H
#define IGS_GRAPH_DEGREE_AWARE_HASH_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/edge_index.h"
#include "graph/live_store.h"
#include "graph/store_tuning.h"

namespace igs::graph {

/**
 * Per-vertex edge array, scanned linearly below a degree threshold
 * (StoreTuning::dah_hash_threshold) and indexed by an EdgeIndex from it
 * on.  ApplyResult::written_at is exact: a weight hit or a removal marks
 * its position, an append the old size.
 */
class DahEdgeSet {
  public:
    /** See AdjacencyList::apply_insert.  `hash_threshold` is the
     *  degree at which this set builds its index. */
    ApplyResult insert(Neighbor nbr, std::uint32_t hash_threshold);
    /** See AdjacencyList::apply_remove (swap-with-last removal). */
    ApplyResult remove(VertexId nbr_id);

    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(edges_.size());
    }
    bool hashed() const { return index_.built(); }

    /** The stored neighbors, unordered (the read path's span). */
    const Neighbor* begin() const { return edges_.data(); }
    const Neighbor* end() const { return edges_.data() + edges_.size(); }

  private:
    std::vector<Neighbor> edges_;
    EdgeIndex index_; // empty until the threshold
};

/** Dynamic directed graph with degree-aware hashed edge sets.  Its
 *  `edges()` rows are unordered, matching the unordered-adjacency
 *  contract of the other stores. */
class DegreeAwareHash : public LiveStore<DahEdgeSet> {
  public:
    explicit DegreeAwareHash(std::size_t num_vertices = 0,
                             const StoreTuning& tuning = {})
        : LiveStore(num_vertices), tuning_(tuning)
    {
    }

    /** Replace the migration threshold (affects future inserts only). */
    void set_tuning(const StoreTuning& tuning) { tuning_ = tuning; }
    const StoreTuning& tuning() const { return tuning_; }

    ApplyResult apply_insert(VertexId v, Neighbor nbr, Direction dir);
    ApplyResult apply_remove(VertexId v, VertexId nbr_id, Direction dir);

  private:
    StoreTuning tuning_;
};

} // namespace igs::graph

#endif // IGS_GRAPH_DEGREE_AWARE_HASH_H
