/**
 * @file
 * EdgeIndex — the open-addressed neighbor-id index of a hashed edge row.
 *
 * A high-degree row of the two adaptive stores keeps its edges in one
 * dense array, in append order, so the read path stays a contiguous
 * span, and adds this index so a duplicate check costs O(1) expected
 * probes instead of an O(degree) scan: HybridEdgeSet's tier 2
 * (graph/hybrid_store.h) and DahEdgeSet above its migration threshold
 * (graph/degree_aware_hash.h).  The index does not own the row; every
 * call takes the row it indexes.  One policy:
 *  - linear probing over a power-of-two slot array, each slot holding
 *    a row position + 1 (0 = empty);
 *  - @ref build indexes a row in its dense order into 16 slots, doubled
 *    while the load would pass 3/8;
 *  - an insert first grows the slots if it could take the load to 3/4:
 *    the slot count doubles and the old slots are rehashed in slot order;
 *  - a removal backshifts the rest of its cluster (no tombstones) and
 *    fills the hole in the row with the row's last entry.
 *
 * ApplyResult::probes — the duplicate-check cost the timing model charges
 * — counts every occupied slot visited, plus the empty slot an insert
 * claims; the walk that repoints the moved last entry is not counted.
 */
#ifndef IGS_GRAPH_EDGE_INDEX_H
#define IGS_GRAPH_EDGE_INDEX_H

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/edge_rows.h"
#include "graph/live_store.h"

namespace igs::graph {

/** Neighbor id -> position index over one dense edge row. */
class EdgeIndex {
  public:
    /** Whether @ref build ran (the row is hashed). */
    bool built() const { return !slots_.empty(); }

    /** Index every entry of `row`, in row order, into fresh slots. */
    void
    build(std::span<const Neighbor> row)
    {
        std::size_t cap = 16;
        while (cap * 3 < row.size() * 8) {
            cap <<= 1;
        }
        slots_.assign(cap, 0);
        for (std::uint32_t p = 0; p < row.size(); ++p) {
            place(row[p].id, p + 1);
        }
    }

    /**
     * Duplicate-check `nbr` in `row`: a hit accumulates its weight, a
     * miss appends it.  ApplyResult::written_at is the hit position or
     * the appended slot.
     */
    ApplyResult
    insert(std::vector<Neighbor>& row, Neighbor nbr)
    {
        ApplyResult r;
        r.len_before = static_cast<std::uint32_t>(row.size());
        if ((row.size() + 1) * 4 >= slots_.size() * 3) {
            grow(row);
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash_id(nbr.id) & mask;
        for (; slots_[i] != 0; i = (i + 1) & mask) {
            ++r.probes;
            const std::uint32_t pos = slots_[i] - 1;
            if (row[pos].id == nbr.id) {
                row[pos].weight += nbr.weight;
                r.found = true;
                r.written_at = pos;
                return r;
            }
        }
        ++r.probes;
        reserve_row(row, row.size() + 1);
        // igs-lint: allow(hot-path-alloc) -- within the reserve_row capacity
        row.push_back(nbr);
        // Slots hold 1-based uint32 positions; a row past 2^32-1 entries
        // would silently alias.
        IGS_DCHECK(row.size() <= std::numeric_limits<std::uint32_t>::max());
        slots_[i] = static_cast<std::uint32_t>(row.size());
        r.written_at = r.len_before;
        return r;
    }

    /** Remove `id` from `row` if present (no-op otherwise).
     *  ApplyResult::written_at is the swap-filled hole. */
    ApplyResult
    remove(std::vector<Neighbor>& row, VertexId id)
    {
        ApplyResult r;
        r.len_before = static_cast<std::uint32_t>(row.size());
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash_id(id) & mask; slots_[i] != 0;
             i = (i + 1) & mask) {
            ++r.probes;
            const std::uint32_t pos = slots_[i] - 1;
            if (row[pos].id != id) {
                continue;
            }
            // 1. Backshift the rest of the cluster into the freed slot.
            std::size_t hole = i;
            for (std::size_t j = (i + 1) & mask; slots_[j] != 0;
                 j = (j + 1) & mask) {
                const std::size_t home = hash_id(row[slots_[j] - 1].id) & mask;
                if (((j - home) & mask) >= ((j - hole) & mask)) {
                    slots_[hole] = slots_[j];
                    hole = j;
                }
            }
            slots_[hole] = 0;
            // 2. Swap-with-last in the row, repointing the moved entry's
            //    slot at its new position.
            const auto last = static_cast<std::uint32_t>(row.size() - 1);
            if (pos != last) {
                row[pos] = row[last];
                std::size_t k = hash_id(row[pos].id) & mask;
                while (slots_[k] != last + 1) {
                    IGS_DCHECK(slots_[k] != 0);
                    k = (k + 1) & mask;
                }
                slots_[k] = pos + 1;
            }
            row.pop_back();
            r.found = true;
            r.written_at = pos;
            return r;
        }
        return r;
    }

    /** Position of `id` in `row`, or row.size() if absent.  Writes
     *  nothing. */
    std::uint32_t
    find(std::span<const Neighbor> row, VertexId id) const
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash_id(id) & mask; slots_[i] != 0;
             i = (i + 1) & mask) {
            if (row[slots_[i] - 1].id == id) {
                return slots_[i] - 1;
            }
        }
        return static_cast<std::uint32_t>(row.size());
    }

  private:
    static std::uint64_t
    hash_id(VertexId id)
    {
        std::uint64_t x = id;
        x ^= x >> 16;
        x *= 0x7feb352dull;
        x ^= x >> 15;
        x *= 0x846ca68bull;
        x ^= x >> 16;
        return x;
    }

    /** Store `slot` in the first empty slot of `id`'s probe sequence. */
    void
    place(VertexId id, std::uint32_t slot)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash_id(id) & mask;
        while (slots_[i] != 0) {
            i = (i + 1) & mask;
        }
        slots_[i] = slot;
    }

    /** Double the slots, rehashing the old ones in slot order. */
    void
    grow(std::span<const Neighbor> row)
    {
        const std::vector<std::uint32_t> old = std::move(slots_);
        slots_.assign(old.size() * 2, 0);
        for (const std::uint32_t s : old) {
            if (s != 0) {
                place(row[s - 1].id, s);
            }
        }
    }

    std::vector<std::uint32_t> slots_;
};

} // namespace igs::graph

#endif // IGS_GRAPH_EDGE_INDEX_H
