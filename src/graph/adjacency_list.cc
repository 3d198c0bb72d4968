#include "graph/adjacency_list.h"

#include <algorithm>
#include <cmath>

namespace igs::graph {

AdjacencyList::AdjacencyList(std::size_t num_vertices)
{
    ensure_vertices(num_vertices);
}

void
AdjacencyList::ensure_vertices(std::size_t n)
{
    if (n <= out_.size()) {
        return;
    }
    out_.resize(n);
    in_.resize(n);
    marks_.grow(n);
    auto new_bids = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < latest_bid_size_; ++i) {
        new_bids[i].store(latest_bid_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    latest_bid_ = std::move(new_bids);
    latest_bid_size_ = n;
    // Locks are only held during a parallel update phase; growing the vertex
    // space happens between batches, so fresh (unlocked) lock arrays are
    // equivalent to the old ones.
    out_locks_.resize(n);
    in_locks_.resize(n);
}

ApplyResult
AdjacencyList::apply_insert(VertexId v, Neighbor nbr, Direction dir)
{
    const VertexId p = map_.to_physical(v);
    IGS_DCHECK(p < out_.size());
    auto& edges = dir == Direction::kOut ? out_[p] : in_[p];
    ApplyResult r;
    r.len_before = static_cast<std::uint32_t>(edges.size());
    for (std::uint32_t i = 0; i < r.len_before; ++i) {
        ++r.probes;
        if (edges[i].id == nbr.id) {
            edges[i].weight += nbr.weight;
            r.found = true;
            r.written_at = i;
            marks_.lower(p, dir, i);
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
    marks_.lower(p, dir, r.written_at);
    if (dir == Direction::kOut) {
        num_edges_.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

ApplyResult
AdjacencyList::apply_remove(VertexId v, VertexId nbr_id, Direction dir)
{
    const VertexId p = map_.to_physical(v);
    IGS_DCHECK(p < out_.size());
    auto& edges = dir == Direction::kOut ? out_[p] : in_[p];
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
            marks_.lower(p, dir, i);
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
    const VertexId p = map_.to_physical(v);
    IGS_DCHECK(p < out_.size());
    auto& edges = dir == Direction::kOut ? out_[p] : in_[p];
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
    marks_.lower(p, dir, written_at);
    return appended;
}

void
AdjacencyList::apply_renumber(std::span<const VertexId> l2p)
{
    IGS_CHECK_MSG(l2p.size() == out_.size(),
                  "apply_renumber: assignment must cover the vertex space");
    const std::size_t n = out_.size();
    // Move-permute the row containers; edge payloads (logical neighbor
    // ids) and latest_bid (logical-indexed) are untouched, so the
    // operation is O(n) row-header moves regardless of edge count.
    std::vector<std::vector<Neighbor>> new_out(n);
    std::vector<std::vector<Neighbor>> new_in(n);
    for (std::size_t l = 0; l < n; ++l) {
        const VertexId p_old = map_.to_physical(static_cast<VertexId>(l));
        new_out[l2p[l]] = std::move(out_[p_old]);
        new_in[l2p[l]] = std::move(in_[p_old]);
    }
    out_ = std::move(new_out);
    in_ = std::move(new_in);
    marks_.renumber(map_, l2p);
    map_.rebind(l2p);
}

std::vector<Neighbor>
AdjacencyList::sorted_edges(VertexId v, Direction dir) const
{
    std::vector<Neighbor> copy = edges(v, dir);
    std::sort(copy.begin(), copy.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
    return copy;
}

bool
AdjacencyList::same_topology(const AdjacencyList& other) const
{
    if (num_vertices() != other.num_vertices()) {
        return false;
    }
    for (VertexId v = 0; v < num_vertices(); ++v) {
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const auto a = sorted_edges(v, dir);
            const auto b = other.sorted_edges(v, dir);
            if (a.size() != b.size()) {
                return false;
            }
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (a[i].id != b[i].id ||
                    std::abs(a[i].weight - b[i].weight) > 1e-4f) {
                    return false;
                }
            }
        }
    }
    return true;
}

} // namespace igs::graph
