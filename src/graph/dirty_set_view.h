/**
 * @file
 * DirtySetView — a graph read path annotated with the epoch's dirty set.
 *
 * The pipeline already computes, per epoch, exactly which vertices an
 * incremental algorithm needs to look at: stream::PendingAccumulator
 * deduplicates every src/dst touched since the last hand-off, and
 * SnapshotStore::publish revisits only those vertices.  This view carries
 * that same set alongside the topology so the compute phase can consume
 * it without a second bookkeeping channel: `DirtySetView` satisfies
 * graph::GraphReadPath (it forwards `num_vertices`/`degree`/`edges` to
 * the wrapped store), and adds `dirty()` / `is_dirty(v)` /
 * `dirty_fraction()` for seeding delta propagation and for the
 * full-vs-delta policy decision (DESIGN.md §14).
 *
 * Non-owning: the wrapped store and the dirty span must outlive the view
 * (per-epoch stack object by convention).  The dirty span must be sorted
 * and deduplicated — `is_dirty` binary-searches it — which is exactly
 * what PendingAccumulator::hand_off produces in PendingWork::affected.
 * Callers wrap any read path directly: `DirtySetView<G>(g, dirty)`.
 */
#ifndef IGS_GRAPH_DIRTY_SET_VIEW_H
#define IGS_GRAPH_DIRTY_SET_VIEW_H

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "common/types.h"
#include "graph/graph_store.h"

namespace igs::graph {

/**
 * Read path of `G` plus the epoch's sorted, deduplicated dirty set.
 *
 * `G` must satisfy graph::GraphReadPath — asserted in the constructor
 * rather than on the template head, so the concept is evaluated only at
 * the construction site, where `G` is complete.
 */
template <typename G>
class DirtySetView {
  public:
    DirtySetView(const G& g, std::span<const VertexId> dirty)
        : graph_(&g), dirty_(dirty)
    {
        static_assert(GraphReadPath<G>,
                      "DirtySetView wraps a graph read path");
        IGS_DCHECK(std::is_sorted(dirty.begin(), dirty.end()));
    }

    // --- GraphReadPath surface (forwarded) ------------------------------
    std::size_t num_vertices() const { return graph_->num_vertices(); }

    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        return graph_->degree(v, dir);
    }

    decltype(auto)
    edges(VertexId v, Direction dir) const
    {
        return graph_->edges(v, dir);
    }

    // --- dirty-set surface ----------------------------------------------
    /** Vertices touched since the previous epoch hand-off (sorted). */
    std::span<const VertexId> dirty() const { return dirty_; }

    bool
    is_dirty(VertexId v) const
    {
        return std::binary_search(dirty_.begin(), dirty_.end(), v);
    }

    /** |dirty| / |V| — the policy signal for full-vs-delta (§14). */
    double
    dirty_fraction() const
    {
        const std::size_t n = num_vertices();
        return n == 0 ? 0.0
                      : static_cast<double>(dirty_.size()) /
                            static_cast<double>(n);
    }

    /** The wrapped store (e.g. for epoch assertions on GraphStore). */
    const G& base() const { return *graph_; }

  private:
    const G* graph_;
    std::span<const VertexId> dirty_;
};

} // namespace igs::graph

#endif // IGS_GRAPH_DIRTY_SET_VIEW_H
