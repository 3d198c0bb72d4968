/**
 * @file
 * Memoized PageRank with dirty-set-seeded delta propagation — the
 * repository's one incremental PageRank (engine, figure benches,
 * examples).
 *
 * The kernel persists a @ref RankState across epochs and seeds each
 * delta round with the epoch's dirty set *and its out-neighborhood*: a
 * dirty vertex's out-degree may have changed, which alters the
 * contribution every one of its out-neighbors pulls — missing those is
 * the classic seeding gap that makes affected-only propagation drift
 * from the from-scratch fixpoint.
 * With the widened seed the pull-based propagation converges to the
 * same fixpoint static_pagerank converges to, up to the residual
 * tolerance (the randomized equivalence harness in
 * tests/test_incremental.cc pins this on all three backends).
 *
 * Deletion-safe by construction: rank pulls are recomputed from the
 * current topology, so a deleted edge simply stops contributing the
 * next time its endpoint is activated — and both endpoints of every
 * deleted edge are in the dirty set.
 */
#ifndef IGS_ANALYTICS_INCREMENTAL_PAGERANK_H
#define IGS_ANALYTICS_INCREMENTAL_PAGERANK_H

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "analytics/compute_meter.h"
#include "analytics/incremental/state.h"
#include "analytics/pagerank.h"
#include "common/types.h"
#include "graph/graph_store.h"

namespace igs::analytics::incremental {

/** Epoch-persistent PageRank (DESIGN.md §14). */
class PageRank {
  public:
    explicit PageRank(const PageRankParams& params = {}) : params_(params)
    {
    }

    const std::vector<double>& ranks() const { return state_.rank; }
    bool warm() const { return state_.warm; }
    const PageRankParams& params() const { return params_; }

    /**
     * Recompute every rank from scratch (pull-based Jacobi, the
     * static_pagerank iteration) into the memo state.  Used for cold
     * starts, vertex-space growth (the (1-d)/|V| base term shifts for
     * *every* vertex when |V| changes, so no delta is valid), and
     * epochs the policy sends to full rerun.
     */
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
        const double init = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
        state_.rank.assign(n, init);
        state_.in_frontier.ensure(n);
        if (n == 0) {
            state_.warm = true;
            return stats_delta(meter->stats(), before);
        }
        const double base = (1.0 - params_.damping) / static_cast<double>(n);
        std::vector<double> next(n, 0.0);
        std::vector<double> contrib(n, 0.0);
        for (std::uint32_t it = 0; it < params_.max_iterations; ++it) {
            meter->iteration();
            double error = 0.0;
            for (VertexId v = 0; v < n; ++v) {
                const auto deg = g.degree(v, Direction::kOut);
                contrib[v] = deg > 0 ? state_.rank[v] /
                                           static_cast<double>(deg)
                                     : 0.0;
            }
            for (VertexId v = 0; v < n; ++v) {
                double sum = 0.0;
                for (const Neighbor& u : g.edges(v, Direction::kIn)) {
                    sum += contrib[u.id];
                }
                meter->activate();
                meter->traverse(g.degree(v, Direction::kIn));
                next[v] = base + params_.damping * sum;
                error += std::abs(next[v] - state_.rank[v]);
            }
            state_.rank.swap(next);
            if (error < params_.tolerance) {
                break;
            }
        }
        state_.warm = true;
        return stats_delta(meter->stats(), before);
    }

    /**
     * One delta round: seed the frontier with the epoch's dirty set
     * `dirty` (PendingWork::affected) plus its out-neighborhood, then
     * pull-recompute ranks outward until every residual falls below the
     * per-vertex tolerance.  Falls back to full_rerun when cold or when
     * the vertex space changed.
     */
    template <typename Graph>
        requires graph::GraphReadPath<Graph>
    ComputeStats
    delta_propagate(const Graph& g, std::span<const VertexId> dirty,
                    ComputeMeter* external_meter = nullptr)
    {
        const std::size_t n = g.num_vertices();
        if (!state_.warm || state_.rank.size() != n) {
            return full_rerun(g, external_meter);
        }
        ComputeMeter local;
        ComputeMeter* meter =
            external_meter != nullptr ? external_meter : &local;
        const ComputeStats before = meter->stats();
        if (n == 0) {
            return stats_delta(meter->stats(), before);
        }
        const double base = (1.0 - params_.damping) / static_cast<double>(n);

        std::vector<VertexId> frontier;
        frontier.reserve(dirty.size());
        for (VertexId v : dirty) {
            if (v >= n) {
                continue;
            }
            state_.in_frontier.push_unique(v, frontier);
            // The dirty vertex's out-degree may have changed: every
            // out-neighbor's pull input did too (the seeding gap).
            for (const Neighbor& w : g.edges(v, Direction::kOut)) {
                meter->traverse();
                state_.in_frontier.push_unique(w.id, frontier);
            }
        }
        meter->seed(frontier.size());

        for (std::uint32_t it = 0;
             it < params_.max_iterations && !frontier.empty(); ++it) {
            meter->iteration();
            std::vector<VertexId> next_frontier;
            for (VertexId v : frontier) {
                state_.in_frontier.clear(v);
            }
            for (VertexId v : frontier) {
                meter->activate();
                double sum = 0.0;
                for (const Neighbor& u : g.edges(v, Direction::kIn)) {
                    meter->traverse();
                    const auto deg = g.degree(u.id, Direction::kOut);
                    if (deg > 0) {
                        sum += state_.rank[u.id] / static_cast<double>(deg);
                    }
                }
                const double new_rank = base + params_.damping * sum;
                const bool changed =
                    std::abs(new_rank - state_.rank[v]) > params_.tolerance;
                state_.rank[v] = new_rank;
                if (changed) {
                    for (const Neighbor& w : g.edges(v, Direction::kOut)) {
                        meter->traverse();
                        state_.in_frontier.push_unique(w.id, next_frontier);
                    }
                }
            }
            frontier.swap(next_frontier);
        }
        for (VertexId v : frontier) {
            state_.in_frontier.clear(v); // iteration cap hit; clear residue
        }
        return stats_delta(meter->stats(), before);
    }

  private:
    PageRankParams params_;
    RankState state_;
};

} // namespace igs::analytics::incremental

#endif // IGS_ANALYTICS_INCREMENTAL_PAGERANK_H
