/**
 * @file
 * Two rules every per-vertex edge row follows, whichever store holds it.
 *
 * **Growth.**  A row that must hold more entries than its capacity grows
 * by one constant factor (@ref grown_row_capacity).  The live stores'
 * appends (AdjacencyList rows, HybridEdgeSet's heap array) and the
 * snapshot's rows (SnapshotStore::publish) all size through
 * @ref reserve_row, so a snapshot row that mirrors a live row rarely
 * reallocates when the live row grows, and the live rows' slack is a
 * quarter instead of std::vector's doubling — which pays for the
 * snapshot's slack in resident memory.
 *
 * **Change marks.**  A live store keeps, per row and direction, the
 * lowest index written since the last publication (@ref ChangeMarks).
 * Every mutator lowers it; SnapshotStore::publish reads and resets it
 * and copies only `[mark, size)` of the row, so publication costs what
 * the batches changed rather than the degree of every dirty vertex
 * (DESIGN.md §11.1).  A mark is written under the same ownership as the
 * row write it describes (the row lock on the baseline path, run
 * ownership on the reordered and USC paths), and only publication reads
 * or resets marks, after the update's pool join: each of its pool
 * workers takes the marks of disjoint vertices (the dirty list is
 * strictly increasing, and a vertex's two rows go to one worker), and the
 * whole-graph reset runs on the ingest thread — so marks are plain
 * integers, not atomics.
 */
#ifndef IGS_GRAPH_EDGE_ROWS_H
#define IGS_GRAPH_EDGE_ROWS_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/vertex_id_map.h"

namespace igs::graph {

/**
 * Capacity a row with capacity `cap` grows to when it must hold `need`
 * entries: a quarter more (at least 4 entries), or `need` if larger.
 */
constexpr std::size_t
grown_row_capacity(std::size_t cap, std::size_t need)
{
    return std::max(cap + std::max<std::size_t>(cap / 4, 4), need);
}

/** Make room for `need` entries in `row` by the growth rule; a no-op
 *  while `need` fits the current capacity. */
template <typename T>
void
reserve_row(std::vector<T>& row, std::size_t need)
{
    if (need > row.capacity()) {
        // The one audited row-growth site every store funnels through.
        // igs-lint: allow(hot-path-alloc) -- amortized by the growth rule
        row.reserve(grown_row_capacity(row.capacity(), need));
    }
}

/** Change mark of a row nothing wrote since the last publication. */
inline constexpr std::uint32_t kRowUnchanged =
    std::numeric_limits<std::uint32_t>::max();

/**
 * Per-row change marks of a live store, indexed by physical row like the
 * rows themselves.  See the file comment for the ownership contract.
 */
class ChangeMarks {
  public:
    /** Grow to `n` rows per direction; new rows start unchanged.  Runs
     *  between batches, with the store's ensure_vertices. */
    void
    grow(std::size_t n)
    {
        out_.resize(n, kRowUnchanged);
        in_.resize(n, kRowUnchanged);
    }

    /** Lower physical row `p`'s mark to `at` (kRowUnchanged: no-op). */
    void
    lower(VertexId p, Direction dir, std::uint32_t at)
    {
        std::uint32_t& m = mark(p, dir);
        m = std::min(m, at);
    }

    /** Physical row `p`'s mark, which is reset to unchanged. */
    std::uint32_t
    take(VertexId p, Direction dir)
    {
        return std::exchange(mark(p, dir), kRowUnchanged);
    }

    /** Mark every row unchanged (after a whole-graph copy). */
    void
    clear()
    {
        std::fill(out_.begin(), out_.end(), kRowUnchanged);
        std::fill(in_.begin(), in_.end(), kRowUnchanged);
    }

    /**
     * Move the marks with the rows of an `apply_renumber`: logical
     * vertex l's marks leave row `old_map.to_physical(l)` for row
     * `l2p[l]`.  Call before rebinding `old_map`.
     */
    void
    renumber(const VertexIdMap& old_map, std::span<const VertexId> l2p)
    {
        ChangeMarks moved;
        moved.grow(out_.size());
        for (std::size_t l = 0; l < l2p.size(); ++l) {
            const VertexId p_old =
                old_map.to_physical(static_cast<VertexId>(l));
            moved.out_[l2p[l]] = out_[p_old];
            moved.in_[l2p[l]] = in_[p_old];
        }
        *this = std::move(moved);
    }

  private:
    std::uint32_t&
    mark(VertexId p, Direction dir)
    {
        return dir == Direction::kOut ? out_[p] : in_[p];
    }

    std::vector<std::uint32_t> out_;
    std::vector<std::uint32_t> in_;
};

} // namespace igs::graph

#endif // IGS_GRAPH_EDGE_ROWS_H
