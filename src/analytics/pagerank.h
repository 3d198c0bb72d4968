/**
 * @file
 * PageRank parameters and static PageRank (GAP-style pull iteration to
 * convergence) — the from-scratch oracle the incremental kernel
 * (analytics/incremental/pagerank.h) is checked against.
 *
 * Operates on any store satisfying the graph::GraphReadPath concept — a
 * live AdjacencyList or HybridStore, or the pipeline's immutable
 * SnapshotView.  The concept constraint documents (and enforces) that the
 * compute phase only touches the read path: an algorithm cannot silently
 * grow a dependency on mutation while a snapshot is in flight.
 */
#ifndef IGS_ANALYTICS_PAGERANK_H
#define IGS_ANALYTICS_PAGERANK_H

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "analytics/compute_meter.h"
#include "graph/graph_store.h"

namespace igs::analytics {

/** PageRank parameters. */
struct PageRankParams {
    double damping = 0.85;
    double tolerance = 1e-4;
    std::uint32_t max_iterations = 50;
};

/**
 * Static PageRank from scratch: pull-based Jacobi iteration until the
 * per-vertex delta sum falls below tolerance (GAP `pr` semantics).
 */
template <typename Graph>
    requires graph::GraphReadPath<Graph>
std::vector<double>
static_pagerank(const Graph& g, const PageRankParams& params = {},
                ComputeMeter* meter = nullptr)
{
    const std::size_t n = g.num_vertices();
    std::vector<double> rank(n, n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
    std::vector<double> next(n, 0.0);
    if (n == 0) {
        return rank;
    }
    const double base = (1.0 - params.damping) / static_cast<double>(n);
    if (meter != nullptr) {
        meter->round();
    }
    for (std::uint32_t it = 0; it < params.max_iterations; ++it) {
        if (meter != nullptr) {
            meter->iteration();
        }
        double error = 0.0;
        // Precompute outgoing contributions to keep the pull loop cheap.
        std::vector<double> contrib(n, 0.0);
        for (VertexId v = 0; v < n; ++v) {
            const auto deg = g.degree(v, Direction::kOut);
            if (deg > 0) {
                contrib[v] = rank[v] / static_cast<double>(deg);
            }
        }
        for (VertexId v = 0; v < n; ++v) {
            double sum = 0.0;
            for (const Neighbor& u : g.edges(v, Direction::kIn)) {
                sum += contrib[u.id];
            }
            if (meter != nullptr) {
                meter->activate();
                meter->traverse(g.degree(v, Direction::kIn));
            }
            next[v] = base + params.damping * sum;
            error += std::abs(next[v] - rank[v]);
        }
        rank.swap(next);
        if (error < params.tolerance) {
            break;
        }
    }
    return rank;
}

} // namespace igs::analytics

#endif // IGS_ANALYTICS_PAGERANK_H
