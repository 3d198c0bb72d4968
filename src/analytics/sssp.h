/**
 * @file
 * Static single-source shortest paths (frontier Bellman-Ford, GAP `sssp`
 * semantics on positive weights) — the from-scratch oracle the
 * incremental kernel (analytics/incremental/sssp.h) is checked against.
 */
#ifndef IGS_ANALYTICS_SSSP_H
#define IGS_ANALYTICS_SSSP_H

#include <cstdint>
#include <vector>

#include "analytics/compute_meter.h"
#include "common/check.h"
#include "common/types.h"
#include "graph/graph_store.h"

namespace igs::analytics {

/**
 * Static SSSP from `source` over out-edges, frontier-based Bellman-Ford.
 * Precondition: edge weights are non-negative (our streams use positive
 * weights); the incremental kernel's insertion bound
 * (analytics/incremental/state.h) needs the same.
 */
template <typename Graph>
    requires graph::GraphReadPath<Graph>
std::vector<Weight>
static_sssp(const Graph& g, VertexId source, ComputeMeter* meter = nullptr)
{
    const std::size_t n = g.num_vertices();
    std::vector<Weight> dist(n, kInfiniteDistance);
    if (n == 0) {
        return dist;
    }
    IGS_CHECK(source < n);
    if (meter != nullptr) {
        meter->round();
    }
    dist[source] = 0.0f;
    std::vector<VertexId> frontier{source};
    std::vector<bool> in_next(n, false);
    while (!frontier.empty()) {
        if (meter != nullptr) {
            meter->iteration();
        }
        std::vector<VertexId> next;
        for (VertexId v : frontier) {
            if (meter != nullptr) {
                meter->activate();
            }
            for (const Neighbor& e : g.edges(v, Direction::kOut)) {
                if (meter != nullptr) {
                    meter->traverse();
                }
                const Weight cand = dist[v] + e.weight;
                if (cand < dist[e.id]) {
                    dist[e.id] = cand;
                    if (!in_next[e.id]) {
                        in_next[e.id] = true;
                        next.push_back(e.id);
                    }
                }
            }
        }
        for (VertexId v : next) {
            in_next[v] = false;
        }
        frontier.swap(next);
    }
    return dist;
}

} // namespace igs::analytics

#endif // IGS_ANALYTICS_SSSP_H
