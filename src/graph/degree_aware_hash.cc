#include "graph/degree_aware_hash.h"

namespace igs::graph {

ApplyResult
DahEdgeSet::insert(Neighbor nbr, std::uint32_t hash_threshold)
{
    if (index_.built()) {
        // igs-lint: allow(hot-path-alloc) -- the index's dense append
        return index_.insert(edges_, nbr);
    }
    ApplyResult r;
    r.len_before = size();
    for (std::uint32_t i = 0; i < r.len_before; ++i) {
        ++r.probes;
        if (edges_[i].id == nbr.id) {
            edges_[i].weight += nbr.weight;
            r.found = true;
            r.written_at = i;
            return r;
        }
    }
    reserve_row(edges_, edges_.size() + 1);
    // igs-lint: allow(hot-path-alloc) -- within the reserve_row capacity
    edges_.push_back(nbr);
    r.written_at = r.len_before;
    if (size() >= hash_threshold) {
        index_.build(edges_);
    }
    return r;
}

ApplyResult
DahEdgeSet::remove(VertexId nbr_id)
{
    if (index_.built()) {
        return index_.remove(edges_, nbr_id);
    }
    ApplyResult r;
    r.len_before = size();
    for (std::uint32_t i = 0; i < r.len_before; ++i) {
        ++r.probes;
        if (edges_[i].id == nbr_id) {
            edges_[i] = edges_.back();
            edges_.pop_back();
            r.found = true;
            r.written_at = i;
            return r;
        }
    }
    return r;
}

ApplyResult
DegreeAwareHash::apply_insert(VertexId v, Neighbor nbr, Direction dir)
{
    auto& set = row(v, dir);
    // igs-lint: allow(hot-path-alloc) -- streamed insert is the workload
    const ApplyResult r = set.insert(nbr, tuning_.dah_hash_threshold);
    marks_.lower(v, dir, r.written_at);
    if (!r.found && dir == Direction::kOut) {
        num_edges_.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

ApplyResult
DegreeAwareHash::apply_remove(VertexId v, VertexId nbr_id, Direction dir)
{
    auto& set = row(v, dir);
    const ApplyResult r = set.remove(nbr_id);
    marks_.lower(v, dir, r.written_at);
    if (r.found && dir == Direction::kOut) {
        num_edges_.fetch_sub(1, std::memory_order_relaxed);
    }
    return r;
}

} // namespace igs::graph
