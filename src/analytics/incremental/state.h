/**
 * @file
 * Memoized per-vertex analytics state that persists across epochs.
 *
 * The incremental kernels (analytics/incremental/{pagerank,sssp,bfs}.h)
 * keep their converged per-vertex values between compute rounds and
 * re-settle only the region the epoch's dirty set can reach (DESIGN.md
 * §14).  This header holds the shared state: a reusable frontier
 * membership bitmap, PageRank's memo vector, and the shortest-path
 * state Sssp and Bfs share, together with the delta round both run
 * over it.  All state grows monotonically with the vertex space and is
 * reused across epochs — steady-state delta rounds allocate only for
 * frontier vectors.
 */
#ifndef IGS_ANALYTICS_INCREMENTAL_STATE_H
#define IGS_ANALYTICS_INCREMENTAL_STATE_H

#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "analytics/compute_meter.h"
#include "common/types.h"
#include "graph/dirty_set_view.h"
#include "graph/graph_store.h"

namespace igs::analytics::incremental {

/** Work counted between two meter snapshots (kernels report their own
 *  share of a shared, epoch-scoped meter). */
inline ComputeStats
stats_delta(ComputeStats after, const ComputeStats& before)
{
    after.activations -= before.activations;
    after.traversals -= before.traversals;
    after.rounds -= before.rounds;
    after.iterations -= before.iterations;
    after.seeds -= before.seeds;
    return after;
}

/**
 * Frontier membership bitmap: dedupes pushes into a worklist.  The
 * epoch's frontiers are transient but the bitmap itself persists (and
 * must be left all-false between rounds — push/clear in pairs).
 */
class FrontierBitmap {
  public:
    void
    ensure(std::size_t n)
    {
        if (bits_.size() < n) {
            bits_.resize(n, false);
        }
    }

    bool test(VertexId v) const { return bits_[v]; }
    void clear(VertexId v) { bits_[v] = false; }

    /** Mark `v` and append it to `out` unless already marked. */
    bool
    push_unique(VertexId v, std::vector<VertexId>& out)
    {
        if (bits_[v]) {
            return false;
        }
        bits_[v] = true;
        out.push_back(v);
        return true;
    }

    std::size_t size() const { return bits_.size(); }

  private:
    std::vector<bool> bits_;
};

/** Memoized PageRank state: converged ranks + frontier scratch. */
struct RankState {
    std::vector<double> rank;
    FrontierBitmap in_frontier;
    /** A full rerun has populated `rank` for the current vertex space. */
    bool warm = false;
};

/**
 * Memoized shortest-path state — Sssp's weighted distances (D = Weight)
 * or Bfs's hop counts (D = std::uint32_t) — and the delta round both
 * kernels run over it (DESIGN.md §14.1).  The value type decides the
 * relaxation step (dist + weight vs hops + 1) and whether insertions
 * can raise a value.
 *
 * Next to every settled value the state keeps the shortest-path tree:
 * `parent[v]` is the source of the relaxation that last lowered
 * `value[v]`, kInvalidVertex for the source and unreached vertices
 * (4 B per vertex).  At fixpoint value[v] == step(value[parent[v]], w)
 * exactly, so a value depends on one edge, not on every in-neighbor
 * that could have carried it.  A delta round trims only that tree
 * (KickStarter's trimming, Ingress's memoization path):
 *  - a deleted edge (u, v) seeds v iff parent[v] == u; for weighted
 *    distances so does an inserted one, since duplicate insertions
 *    accumulate weight — an insert on a tree edge is either that or
 *    the reinsertion of an edge the same hand-off deleted, so seeding
 *    it unexamined is safe;
 *  - the seeds' subtrees (w with parent[w] == v, transitively) reset to
 *    unreached and re-seed from their intact in-boundary;
 *  - relaxation from there and from the inserted edges' sources runs
 *    to fixpoint.
 * Every untagged value is still the path sum along its intact tree
 * path, so relaxation settles on the least fixpoint the static kernels
 * compute — bit-for-bit, not within a tolerance: both take the min over
 * paths of the (float, for distances) path sum, which is
 * order-independent.
 */
template <typename D>
class PathState {
  public:
    /** Distances read edge weights; hop counts never do, so weight
     *  accumulation cannot raise them. */
    static constexpr bool kWeighted = std::is_floating_point_v<D>;
    /** "Not reached": infinity for distances, ~0u for hop counts. */
    static constexpr D kUnreached = std::numeric_limits<D>::has_infinity
                                        ? std::numeric_limits<D>::infinity()
                                        : std::numeric_limits<D>::max();

    const std::vector<D>& values() const { return value_; }
    const std::vector<VertexId>& parents() const { return parent_; }
    bool warm() const { return warm_; }

    /** Relax from `source` alone, from scratch. */
    template <typename Graph>
        requires graph::GraphReadPath<Graph>
    ComputeStats
    full_rerun(const Graph& g, VertexId source, ComputeMeter* external_meter)
    {
        ComputeMeter local;
        ComputeMeter* meter =
            external_meter != nullptr ? external_meter : &local;
        const ComputeStats before = meter->stats();
        const std::size_t n = g.num_vertices();
        value_.assign(n, kUnreached);
        parent_.assign(n, kInvalidVertex);
        in_frontier_.ensure(n);
        dirty_.ensure(n);
        warm_ = true;
        if (source < n) {
            value_[source] = 0;
            std::vector<VertexId> frontier{source};
            relax_to_fixpoint(g, frontier, meter);
        }
        return stats_delta(meter->stats(), before);
    }

    /**
     * One delta round over the epoch's edge deltas (PendingWork; the
     * view's dirty set is their vertex projection).  Falls back to
     * full_rerun when cold.
     */
    template <typename Graph>
    ComputeStats
    delta_update(const graph::DirtySetView<Graph>& view, VertexId source,
                 std::span<const StreamEdge> inserted,
                 std::span<const StreamEdge> deleted,
                 ComputeMeter* external_meter)
    {
        if (!warm_) {
            return full_rerun(view, source, external_meter);
        }
        ComputeMeter local;
        ComputeMeter* meter =
            external_meter != nullptr ? external_meter : &local;
        const ComputeStats before = meter->stats();
        const std::size_t n = view.num_vertices();
        ensure(n);
        if (n == 0) {
            return stats_delta(meter->stats(), before);
        }

        std::vector<VertexId> frontier;
        auto push = [&](VertexId v) { in_frontier_.push_unique(v, frontier); };

        // --- Value-raising modifications: tag the subtree below every
        // modified tree edge.
        std::vector<VertexId> stack;
        auto seed_if_tree_edge = [&](const StreamEdge& e) {
            if (e.src < n && e.dst < n && parent_[e.dst] == e.src) {
                dirty_.push_unique(e.dst, stack);
            }
        };
        for (const StreamEdge& e : deleted) {
            seed_if_tree_edge(e);
        }
        if constexpr (kWeighted) {
            for (const StreamEdge& e : inserted) {
                seed_if_tree_edge(e);
            }
        }
        std::vector<VertexId> region;
        while (!stack.empty()) {
            const VertexId v = stack.back();
            stack.pop_back();
            region.push_back(v);
            meter->activate();
            for (const Neighbor& e : view.edges(v, Direction::kOut)) {
                meter->traverse();
                if (parent_[e.id] == v) {
                    dirty_.push_unique(e.id, stack);
                }
            }
        }
        // Reset the region and re-seed from its in-boundary plus the
        // source.
        for (VertexId v : region) {
            value_[v] = kUnreached;
            parent_[v] = kInvalidVertex;
        }
        for (VertexId v : region) {
            for (const Neighbor& e : view.edges(v, Direction::kIn)) {
                meter->traverse();
                if (!dirty_.test(e.id) && value_[e.id] != kUnreached) {
                    push(e.id);
                }
            }
        }
        for (VertexId v : region) {
            dirty_.clear(v);
        }
        if (!region.empty() && source < n) {
            push(source);
        }

        // --- Value-lowering modifications: relax from the inserted
        // edges' reached sources.
        for (const StreamEdge& e : inserted) {
            if (e.src < n && value_[e.src] != kUnreached) {
                push(e.src);
            }
        }
        if (source < n && value_[source] != 0) {
            value_[source] = 0;
            push(source);
        }

        meter->seed(frontier.size());
        relax_to_fixpoint(view, frontier, meter);
        return stats_delta(meter->stats(), before);
    }

  private:
    static D
    step(D value, Weight weight)
    {
        if constexpr (kWeighted) {
            return value + weight;
        } else {
            return value + 1;
        }
    }

    void
    ensure(std::size_t n)
    {
        if (value_.size() < n) {
            value_.resize(n, kUnreached);
            parent_.resize(n, kInvalidVertex);
        }
        in_frontier_.ensure(n);
        dirty_.ensure(n);
    }

    /**
     * Relax out-edges of `frontier` until no value changes, recording
     * each lowering's source as the new parent.  Frontier membership
     * flags are set for the incoming seeds (full_rerun's bare source
     * excepted — a one-element frontier has no duplicates) and are
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
                in_frontier_.clear(v);
            }
            std::vector<VertexId> current;
            current.swap(frontier);
            for (VertexId v : current) {
                meter->activate();
                for (const Neighbor& e : g.edges(v, Direction::kOut)) {
                    meter->traverse();
                    const D cand = step(value_[v], e.weight);
                    if (cand < value_[e.id]) {
                        value_[e.id] = cand;
                        parent_[e.id] = v;
                        in_frontier_.push_unique(e.id, frontier);
                    }
                }
            }
        }
    }

    std::vector<D> value_;
    std::vector<VertexId> parent_;
    FrontierBitmap in_frontier_;
    FrontierBitmap dirty_;
    bool warm_ = false;
};

} // namespace igs::analytics::incremental

#endif // IGS_ANALYTICS_INCREMENTAL_STATE_H
