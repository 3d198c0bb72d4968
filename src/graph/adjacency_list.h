/**
 * @file
 * Adjacency-list dynamic graph structure ("AS" in the paper / SAGA-Bench).
 *
 * Per vertex, two growable edge arrays (out- and in-neighbors) in the
 * shared vertex table of graph/live_store.h, which also holds the
 * per-vertex/per-direction locks the baseline (non-reordered) update path
 * takes, OCA's `latest_bid`, the epoch token and the per-row change
 * marks.  Duplicate checking is a linear scan of the vertex's edge
 * array — the cost the paper's USC and HAU techniques target.
 */
#ifndef IGS_GRAPH_ADJACENCY_LIST_H
#define IGS_GRAPH_ADJACENCY_LIST_H

#include <cstdint>
#include <vector>

#include "common/flat_table.h"
#include "common/types.h"
#include "graph/live_store.h"

namespace igs::graph {

/** Dynamic directed graph stored as per-vertex adjacency arrays. */
class AdjacencyList : public LiveStore<std::vector<Neighbor>> {
  public:
    /** Create a graph over vertices [0, num_vertices). */
    explicit AdjacencyList(std::size_t num_vertices = 0)
        : LiveStore(num_vertices)
    {
    }

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

    /**
     * USC coalesced apply of a one-entry table (the USC kernel's one-edge
     * insert runs).  For one target, apply_coalesced's scan-and-append
     * is apply_insert's write bit for bit: the same weight sum, append
     * slot, row growth and change mark — so it is apply_insert.
     */
    ApplyResult
    apply_coalesced_one(VertexId v, Direction dir, Neighbor nbr)
    {
        return apply_insert(v, nbr, dir);
    }
};

} // namespace igs::graph

#endif // IGS_GRAPH_ADJACENCY_LIST_H
