#include "graph/degree_aware_hash.h"

namespace igs::graph {

ApplyResult
DahEdgeSet::insert(Neighbor nbr, std::uint32_t hash_threshold)
{
    if (!table_.empty()) {
        return hash_insert(nbr);
    }
    ApplyResult r;
    r.len_before = static_cast<std::uint32_t>(array_.size());
    r.written_at = 0;
    for (Neighbor& e : array_) {
        ++r.probes;
        if (e.id == nbr.id) {
            e.weight += nbr.weight;
            r.found = true;
            return r;
        }
    }
    // igs-lint: allow(hot-path-alloc) -- amortized neighbor-array growth
    array_.push_back(nbr);
    ++count_;
    if (count_ >= hash_threshold) {
        migrate_to_hash();
    }
    return r;
}

ApplyResult
DahEdgeSet::hash_insert(Neighbor nbr)
{
    ApplyResult r;
    r.len_before = count_;
    r.written_at = 0;
    if ((count_ + 1) * 4 >= table_.size() * 3) {
        grow_table();
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash_id(nbr.id) & mask;
    while (table_[i].id != kInvalidVertex) {
        ++r.probes;
        if (table_[i].id == nbr.id) {
            table_[i].weight += nbr.weight;
            r.found = true;
            return r;
        }
        i = (i + 1) & mask;
    }
    ++r.probes;
    table_[i] = {nbr.id, nbr.weight};
    ++count_;
    return r;
}

ApplyResult
DahEdgeSet::remove(VertexId nbr_id)
{
    ApplyResult r;
    r.len_before = count_;
    if (table_.empty()) {
        for (std::size_t i = 0; i < array_.size(); ++i) {
            ++r.probes;
            if (array_[i].id == nbr_id) {
                array_[i] = array_.back();
                array_.pop_back();
                --count_;
                r.found = true;
                r.written_at = 0;
                return r;
            }
        }
        return r;
    }
    // Open addressing with linear probing: deletion re-inserts the cluster
    // tail (backshift deletion keeps probe sequences valid without
    // tombstones).
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash_id(nbr_id) & mask;
    while (table_[i].id != kInvalidVertex) {
        ++r.probes;
        if (table_[i].id == nbr_id) {
            r.found = true;
            r.written_at = 0;
            --count_;
            // Backshift the rest of the cluster.
            std::size_t hole = i;
            std::size_t j = (i + 1) & mask;
            while (table_[j].id != kInvalidVertex) {
                const std::size_t home = hash_id(table_[j].id) & mask;
                const bool movable = ((j - home) & mask) >= ((j - hole) & mask);
                if (movable) {
                    table_[hole] = table_[j];
                    hole = j;
                }
                j = (j + 1) & mask;
            }
            table_[hole] = Slot{};
            return r;
        }
        i = (i + 1) & mask;
    }
    return r;
}

void
DahEdgeSet::migrate_to_hash()
{
    std::size_t cap = 16;
    while (cap * 3 < static_cast<std::size_t>(count_) * 4 * 2) {
        cap <<= 1;
    }
    table_.assign(cap, Slot{});
    const std::size_t mask = cap - 1;
    for (const Neighbor& n : array_) {
        std::size_t i = hash_id(n.id) & mask;
        while (table_[i].id != kInvalidVertex) {
            i = (i + 1) & mask;
        }
        table_[i] = {n.id, n.weight};
    }
    array_.clear();
    array_.shrink_to_fit();
}

void
DahEdgeSet::grow_table()
{
    std::vector<Slot> old = std::move(table_);
    table_.assign(old.size() * 2, Slot{});
    const std::size_t mask = table_.size() - 1;
    for (const Slot& s : old) {
        if (s.id == kInvalidVertex) {
            continue;
        }
        std::size_t i = hash_id(s.id) & mask;
        while (table_[i].id != kInvalidVertex) {
            i = (i + 1) & mask;
        }
        table_[i] = s;
    }
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
