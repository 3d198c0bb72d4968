/**
 * @file
 * Static BFS hop distances — an extension algorithm, not one of the
 * paper's evaluated four, and the from-scratch oracle the incremental
 * kernel (analytics/incremental/bfs.h) is checked against.
 */
#ifndef IGS_ANALYTICS_TRAVERSAL_H
#define IGS_ANALYTICS_TRAVERSAL_H

#include <cstdint>
#include <vector>

#include "analytics/compute_meter.h"
#include "common/check.h"
#include "common/types.h"
#include "graph/graph_store.h"

namespace igs::analytics {

/** BFS hop distances from `source` over out-edges; unreachable = ~0u. */
template <typename Graph>
    requires graph::GraphReadPath<Graph>
std::vector<std::uint32_t>
bfs_distances(const Graph& g, VertexId source, ComputeMeter* meter = nullptr)
{
    const std::size_t n = g.num_vertices();
    std::vector<std::uint32_t> dist(n, ~0u);
    if (n == 0) {
        return dist;
    }
    IGS_CHECK(source < n);
    if (meter != nullptr) {
        meter->round();
    }
    dist[source] = 0;
    std::vector<VertexId> frontier{source};
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
                if (dist[e.id] == ~0u) {
                    dist[e.id] = dist[v] + 1;
                    next.push_back(e.id);
                }
            }
        }
        frontier.swap(next);
    }
    return dist;
}

} // namespace igs::analytics

#endif // IGS_ANALYTICS_TRAVERSAL_H
