/**
 * @file
 * Memoized BFS (hop distances) with deletion-safe delta rounds.
 *
 * The unit-weight sibling of analytics/incremental/sssp.h over the same
 * @ref PathState: hop counts and their BFS tree persist across epochs.
 * Insertions can only shorten hop distances, so they relax outward from
 * the inserted edges' sources.  A deletion of a tree edge (u, v) —
 * parent[v] == u — may lengthen them: v's subtree is reset to
 * unreachable and re-settled from its in-boundary.  Insertions never
 * seed a trim, unlike SSSP's: weight accumulation on a duplicate does
 * not change hop counts, so a duplicate-heavy insert-only stream never
 * trims at all.
 *
 * Hop counts are integers, so the equivalence harness asserts exact
 * equality against traversal.h's bfs_distances every epoch.
 */
#ifndef IGS_ANALYTICS_INCREMENTAL_BFS_H
#define IGS_ANALYTICS_INCREMENTAL_BFS_H

#include <cstdint>
#include <span>
#include <vector>

#include "analytics/compute_meter.h"
#include "analytics/incremental/state.h"
#include "common/types.h"
#include "graph/dirty_set_view.h"
#include "graph/graph_store.h"

namespace igs::analytics::incremental {

/** Epoch-persistent BFS hop distances (DESIGN.md §14). */
class Bfs {
  public:
    static constexpr std::uint32_t kUnreachable =
        PathState<std::uint32_t>::kUnreached;

    explicit Bfs(VertexId source) : source_(source) {}

    VertexId source() const { return source_; }
    const std::vector<std::uint32_t>& hops() const { return state_.values(); }
    /** BFS tree: the in-neighbor each hop count came from. */
    const std::vector<VertexId>& parents() const { return state_.parents(); }
    bool warm() const { return state_.warm(); }

    /** Plain BFS from scratch into the memo state. */
    template <typename Graph>
        requires graph::GraphReadPath<Graph>
    ComputeStats
    full_rerun(const Graph& g, ComputeMeter* external_meter = nullptr)
    {
        return state_.full_rerun(g, source_, external_meter);
    }

    /**
     * One delta round over the epoch's modifications; falls back to
     * full_rerun when cold.
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
    PathState<std::uint32_t> state_;
};

} // namespace igs::analytics::incremental

#endif // IGS_ANALYTICS_INCREMENTAL_BFS_H
