/**
 * @file
 * Memoized per-vertex analytics state that persists across epochs.
 *
 * The incremental kernels (analytics/incremental/{pagerank,sssp,bfs}.h)
 * keep their converged per-vertex values between compute rounds and
 * re-settle only the region the epoch's dirty set can reach (DESIGN.md
 * §14).  This header holds the shared state containers: a reusable
 * frontier membership bitmap and the per-algorithm memo vectors.  All
 * state grows monotonically with the vertex space and is reused across
 * epochs — steady-state delta rounds allocate only for frontier
 * vectors.
 */
#ifndef IGS_ANALYTICS_INCREMENTAL_STATE_H
#define IGS_ANALYTICS_INCREMENTAL_STATE_H

#include <cstdint>
#include <vector>

#include "analytics/compute_meter.h"
#include "common/types.h"

namespace igs::analytics::incremental {

/** Work counted between two meter snapshots (kernels report their own
 *  share of a shared, epoch-scoped meter). */
inline ComputeStats
stats_delta(ComputeStats after, const ComputeStats& before)
{
    after.activations -= before.activations;
    after.traversals -= before.traversals;
    after.rounds -= before.rounds;
    after.iterations -= before.iterations;
    after.seeds -= before.seeds;
    return after;
}

/**
 * Frontier membership bitmap: dedupes pushes into a worklist.  The
 * epoch's frontiers are transient but the bitmap itself persists (and
 * must be left all-false between rounds — push/clear in pairs).
 */
class FrontierBitmap {
  public:
    void
    ensure(std::size_t n)
    {
        if (bits_.size() < n) {
            bits_.resize(n, false);
        }
    }

    bool test(VertexId v) const { return bits_[v]; }
    void clear(VertexId v) { bits_[v] = false; }

    /** Mark `v` and append it to `out` unless already marked. */
    bool
    push_unique(VertexId v, std::vector<VertexId>& out)
    {
        if (bits_[v]) {
            return false;
        }
        bits_[v] = true;
        out.push_back(v);
        return true;
    }

    std::size_t size() const { return bits_.size(); }

  private:
    std::vector<bool> bits_;
};

/** Memoized PageRank state: converged ranks + frontier scratch. */
struct RankState {
    std::vector<double> rank;
    FrontierBitmap in_frontier;
    /** A full rerun has populated `rank` for the current vertex space. */
    bool warm = false;
};

/** Memoized SSSP state: settled distances + trim/frontier scratch. */
struct DistState {
    std::vector<Weight> dist;
    FrontierBitmap in_frontier;
    FrontierBitmap dirty;
    bool warm = false;

    void
    ensure(std::size_t n)
    {
        if (dist.size() < n) {
            dist.resize(n, kInfiniteDistance);
        }
        in_frontier.ensure(n);
        dirty.ensure(n);
    }
};

/** Memoized BFS state: settled hop counts + trim/frontier scratch. */
struct HopState {
    /** Hop distance per vertex; ~0u = unreachable (traversal.h). */
    std::vector<std::uint32_t> hops;
    FrontierBitmap in_frontier;
    FrontierBitmap dirty;
    bool warm = false;

    void
    ensure(std::size_t n)
    {
        if (hops.size() < n) {
            hops.resize(n, ~0u);
        }
        in_frontier.ensure(n);
        dirty.ensure(n);
    }
};

} // namespace igs::analytics::incremental

#endif // IGS_ANALYTICS_INCREMENTAL_STATE_H
