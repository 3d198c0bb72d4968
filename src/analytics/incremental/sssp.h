/**
 * @file
 * Memoized SSSP with deletion-safe tag-and-correct delta rounds — the
 * repository's one incremental SSSP (engine, figure benches, examples).
 *
 * The settled distance vector survives across epochs in a @ref
 * DistState and each delta round applies KickStarter-style trimming —
 * tag the dependence region of every distance-increasing modification
 * (deletions, and duplicate insertions, which *accumulate* weight under
 * the engine's update semantics), reset it to infinity, and re-relax
 * from the region's in-boundary plus the source.  Distance-decreasing
 * modifications (fresh insertions) relax outward directly.
 *
 * Relaxation runs to fixpoint, so the settled distances equal the
 * least-fixpoint static_sssp computes — bit-for-bit, not just within a
 * tolerance: both solve min over paths of the float path sum, which is
 * order-independent.  The randomized harness in
 * tests/test_incremental.cc asserts exact equality every epoch.
 */
#ifndef IGS_ANALYTICS_INCREMENTAL_SSSP_H
#define IGS_ANALYTICS_INCREMENTAL_SSSP_H

#include <cstdint>
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
    const std::vector<Weight>& distances() const { return state_.dist; }
    bool warm() const { return state_.warm; }

    /** Frontier Bellman-Ford from scratch into the memo state. */
    template <typename Graph>
        requires graph::GraphReadPath<Graph>
    ComputeStats
    full_rerun(const Graph& g, ComputeMeter* external_meter = nullptr)
    {
        ComputeMeter local;
        ComputeMeter* meter =
            external_meter != nullptr ? external_meter : &local;
        const ComputeStats before = meter->stats();
        const std::size_t n = g.num_vertices();
        state_.dist.assign(n, kInfiniteDistance);
        state_.in_frontier.ensure(n);
        state_.dirty.ensure(n);
        state_.warm = true;
        if (n == 0 || source_ >= n) {
            return stats_delta(meter->stats(), before);
        }
        state_.dist[source_] = 0.0f;
        std::vector<VertexId> frontier{source_};
        relax_to_fixpoint(g, frontier, meter);
        return stats_delta(meter->stats(), before);
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
        if (!state_.warm) {
            return full_rerun(view, external_meter);
        }
        ComputeMeter local;
        ComputeMeter* meter =
            external_meter != nullptr ? external_meter : &local;
        const ComputeStats before = meter->stats();
        const std::size_t n = view.num_vertices();
        state_.ensure(n);
        if (n == 0) {
            return stats_delta(meter->stats(), before);
        }

        std::vector<VertexId> frontier;
        auto push = [&](VertexId v) {
            state_.in_frontier.push_unique(v, frontier);
        };

        // --- Distance-increasing modifications: trim the dependence
        // region (KickStarter).  Deletions, plus duplicate insertions —
        // the engine accumulates weights on duplicates, so an "insert"
        // can make an existing edge heavier and lengthen paths through
        // it.
        std::vector<VertexId> dirty;
        std::vector<VertexId> stack;
        auto seed_if_dependent = [&](const StreamEdge& e) {
            if (e.dst < n && state_.dist[e.dst] != kInfiniteDistance &&
                e.src < n && state_.dist[e.src] != kInfiniteDistance) {
                // Did dst's distance plausibly run through (src,dst)?
                if (state_.dist[e.dst] >= state_.dist[e.src] &&
                    !state_.dirty.test(e.dst)) {
                    state_.dirty.push_unique(e.dst, stack);
                }
            }
        };
        for (const StreamEdge& e : deleted) {
            seed_if_dependent(e);
        }
        for (const StreamEdge& e : inserted) {
            if (e.src >= n || e.dst >= n) {
                continue;
            }
            // Detect accumulation: the edge's current weight exceeds
            // this insertion's contribution iff it already existed.
            for (const Neighbor& nb : view.edges(e.src, Direction::kOut)) {
                meter->traverse();
                if (nb.id == e.dst) {
                    if (nb.weight > e.weight + 1e-6f) {
                        seed_if_dependent(e);
                    }
                    break;
                }
            }
        }
        // Transitively tag everything whose distance may have depended
        // on a tagged vertex (conservative: any out-neighbor with a
        // larger-or-equal distance may have routed through it).
        while (!stack.empty()) {
            const VertexId v = stack.back();
            stack.pop_back();
            dirty.push_back(v);
            meter->activate();
            for (const Neighbor& e : view.edges(v, Direction::kOut)) {
                meter->traverse();
                if (!state_.dirty.test(e.id) &&
                    state_.dist[e.id] != kInfiniteDistance &&
                    state_.dist[e.id] >= state_.dist[v]) {
                    state_.dirty.push_unique(e.id, stack);
                }
            }
        }
        // Reset the region and re-seed from its in-boundary.
        for (VertexId v : dirty) {
            state_.dist[v] = kInfiniteDistance;
        }
        for (VertexId v : dirty) {
            for (const Neighbor& e : view.edges(v, Direction::kIn)) {
                meter->traverse();
                if (!state_.dirty.test(e.id) &&
                    state_.dist[e.id] != kInfiniteDistance) {
                    push(e.id);
                }
            }
        }
        for (VertexId v : dirty) {
            state_.dirty.clear(v);
        }
        if (!dirty.empty() && source_ < n) {
            state_.dist[source_] = 0.0f;
            push(source_);
        }

        // --- Distance-decreasing modifications: relax from sources of
        // new edges.
        for (const StreamEdge& e : inserted) {
            if (e.src < n && state_.dist[e.src] != kInfiniteDistance) {
                push(e.src);
            }
        }
        if (source_ < n && state_.dist[source_] != 0.0f) {
            state_.dist[source_] = 0.0f;
            push(source_);
        }

        meter->seed(frontier.size());
        relax_to_fixpoint(view, frontier, meter);
        return stats_delta(meter->stats(), before);
    }

  private:
    /**
     * Relax out-edges of `frontier` until no distance changes.  Frontier
     * membership flags are set for the incoming seeds (full_rerun's bare
     * source excepted — a one-element frontier has no duplicates) and are
     * cleared pass-by-pass at loop top, so the bitmap ends all-false.
     */
    template <typename Graph>
    void
    relax_to_fixpoint(const Graph& g, std::vector<VertexId>& frontier,
                      ComputeMeter* meter)
    {
        while (!frontier.empty()) {
            meter->iteration();
            for (VertexId v : frontier) {
                state_.in_frontier.clear(v);
            }
            std::vector<VertexId> current;
            current.swap(frontier);
            for (VertexId v : current) {
                meter->activate();
                for (const Neighbor& e : g.edges(v, Direction::kOut)) {
                    meter->traverse();
                    const Weight cand = state_.dist[v] + e.weight;
                    if (cand < state_.dist[e.id]) {
                        state_.dist[e.id] = cand;
                        state_.in_frontier.push_unique(e.id, frontier);
                    }
                }
            }
        }
    }

    VertexId source_;
    DistState state_;
};

} // namespace igs::analytics::incremental

#endif // IGS_ANALYTICS_INCREMENTAL_SSSP_H
