/**
 * @file
 * Memoized SSSP with deletion-safe trim-and-correct delta rounds — the
 * repository's one incremental SSSP (engine, figure benches, examples).
 *
 * The settled distances and their shortest-path tree survive across
 * epochs in a @ref PathState, and each delta round trims only the tree
 * below a distance-increasing modification of a tree edge: deletions,
 * and insertions, because the engine accumulates weight on duplicate
 * insertions, so an "insert" can make an existing edge heavier.
 * Fresh insertions relax outward directly.
 *
 * Relaxation runs to fixpoint, so the settled distances equal the
 * least fixpoint static_sssp computes, bit-for-bit (PathState).  The
 * randomized harness in tests/test_incremental.cc asserts exact
 * equality, and the parent tree's invariant, every epoch.
 */
#ifndef IGS_ANALYTICS_INCREMENTAL_SSSP_H
#define IGS_ANALYTICS_INCREMENTAL_SSSP_H

#include <span>
#include <vector>

#include "analytics/compute_meter.h"
#include "analytics/incremental/state.h"
#include "common/types.h"
#include "graph/dirty_set_view.h"
#include "graph/graph_store.h"

namespace igs::analytics::incremental {

/** Epoch-persistent single-source shortest paths (DESIGN.md §14). */
class Sssp {
  public:
    explicit Sssp(VertexId source) : source_(source) {}

    VertexId source() const { return source_; }
    const std::vector<Weight>& distances() const { return state_.values(); }
    /** Shortest-path tree: the in-neighbor each distance came from. */
    const std::vector<VertexId>& parents() const { return state_.parents(); }
    bool warm() const { return state_.warm(); }

    /** Frontier Bellman-Ford from scratch into the memo state. */
    template <typename Graph>
        requires graph::GraphReadPath<Graph>
    ComputeStats
    full_rerun(const Graph& g, ComputeMeter* external_meter = nullptr)
    {
        return state_.full_rerun(g, source_, external_meter);
    }

    /**
     * One delta round over the epoch's modifications.  `inserted` /
     * `deleted` are the epoch's edge deltas (PendingWork); the view's
     * dirty set is their vertex projection.  Falls back to full_rerun
     * when cold.
     */
    template <typename Graph>
    ComputeStats
    delta_update(const graph::DirtySetView<Graph>& view,
                 std::span<const StreamEdge> inserted,
                 std::span<const StreamEdge> deleted,
                 ComputeMeter* external_meter = nullptr)
    {
        return state_.delta_update(view, source_, inserted, deleted,
                                   external_meter);
    }

  private:
    VertexId source_;
    PathState<Weight> state_;
};

} // namespace igs::analytics::incremental

#endif // IGS_ANALYTICS_INCREMENTAL_SSSP_H
