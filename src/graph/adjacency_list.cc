#include "graph/adjacency_list.h"

#include <algorithm>

namespace igs::graph {

ApplyResult
AdjacencyList::apply_insert(VertexId v, Neighbor nbr, Direction dir)
{
    auto& edges = row(v, dir);
    ApplyResult r;
    r.len_before = static_cast<std::uint32_t>(edges.size());
    for (std::uint32_t i = 0; i < r.len_before; ++i) {
        ++r.probes;
        if (edges[i].id == nbr.id) {
            edges[i].weight += nbr.weight;
            r.found = true;
            r.written_at = i;
            marks_.lower(v, dir, i);
            return r;
        }
    }
    // Amortized edge-array growth: the streamed insert is itself the
    // workload being charged.
    reserve_row(edges, edges.size() + 1);
    // Within the capacity reserve_row just ensured; never reallocates.
    // igs-lint: allow(hot-path-alloc)
    edges.push_back(nbr);
    r.written_at = r.len_before;
    marks_.lower(v, dir, r.written_at);
    if (dir == Direction::kOut) {
        num_edges_.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

ApplyResult
AdjacencyList::apply_remove(VertexId v, VertexId nbr_id, Direction dir)
{
    auto& edges = row(v, dir);
    ApplyResult r;
    r.len_before = static_cast<std::uint32_t>(edges.size());
    for (std::uint32_t i = 0; i < r.len_before; ++i) {
        ++r.probes;
        if (edges[i].id == nbr_id) {
            // Swap-with-last: the hole at i is the lowest slot written.
            edges[i] = edges.back();
            edges.pop_back();
            r.found = true;
            r.written_at = i;
            marks_.lower(v, dir, i);
            if (dir == Direction::kOut) {
                num_edges_.fetch_sub(1, std::memory_order_relaxed);
            }
            return r;
        }
    }
    return r;
}

std::size_t
AdjacencyList::apply_coalesced(VertexId v, Direction dir,
                               FlatWeightTable& table)
{
    auto& edges = row(v, dir);
    // Steps 2-3 (Fig 8): one scan of the edge data, a hash lookup per
    // element, draining matches (the weight accumulates in place).
    std::uint32_t written_at = kRowUnchanged;
    const auto len_before = static_cast<std::uint32_t>(edges.size());
    for (std::uint32_t i = 0; i < len_before; ++i) {
        Weight w = 0.0f;
        if (table.drain(edges[i].id, &w)) {
            edges[i].weight += w;
            written_at = std::min(written_at, i);
        }
    }
    // Step 4: the remainder is new edges by construction; append it.
    const std::size_t appended = table.size();
    if (appended != 0) {
        reserve_row(edges, len_before + appended);
        table.for_each([&](VertexId target, Weight w) {
            // Within the capacity reserved above; never reallocates.
            // igs-lint: allow(hot-path-alloc)
            edges.push_back(Neighbor{target, w});
        });
        written_at = std::min(written_at, len_before);
        if (dir == Direction::kOut) {
            num_edges_.fetch_add(appended, std::memory_order_relaxed);
        }
    }
    marks_.lower(v, dir, written_at);
    return appended;
}

} // namespace igs::graph
