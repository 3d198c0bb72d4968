/**
 * @file
 * Batch reordering (RO, paper §3.2).
 *
 * Reorganizes an input batch so that all edges of one vertex are contiguous
 * ("clustered"), enabling lock-free vertex-centric updates: ordering the
 * batch by source yields the out-edge update order, and a second ordering by
 * destination yields the in-edge order ("two reordered input batches which
 * must each be updated separately").  Within a vertex's run, arrival order
 * is preserved (stability) so insert-before-delete semantics and duplicate
 * resolution stay deterministic.
 *
 * Two host implementations produce byte-identical reorderings:
 *
 *  - @ref ReorderMode::kComparison — the paper's two parallel stable sorts
 *    plus a serial run-index scan (also exposed as the free function
 *    @ref reorder_batch, the test oracle);
 *  - @ref ReorderMode::kRadix — a stable LSD counting/radix pipeline: a
 *    max-vertex pass (folding in the engine's ensure-capacity scan) fixes
 *    a digit plan sized to the batch and its key range, one fused pass
 *    histograms the batch by source and destination low digits, edges
 *    are then scattered into preallocated flat buffers, and run
 *    boundaries fall out of the histogram prefix sums.  All state lives
 *    in a reusable @ref ReorderScratch arena, so steady-state reordering
 *    performs zero heap allocations.
 *
 * The engine executes the radix path by default (EngineConfig::reorder_mode)
 * while the simulator keeps charging the paper's parallel-stable-sort cost —
 * host execution changed, the Table-1 machine model did not.
 */
#ifndef IGS_STREAM_REORDER_H
#define IGS_STREAM_REORDER_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"

namespace igs::stream {

/** A contiguous run of equal-key edges in a reordered batch. */
struct VertexRun {
    VertexId vertex = 0;
    std::uint32_t begin = 0; // index into the sorted edge array
    std::uint32_t end = 0;

    std::uint32_t size() const { return end - begin; }

    friend bool operator==(const VertexRun&, const VertexRun&) = default;
};

/** One direction of a reordered batch: sorted edges plus its run index. */
struct ReorderedDirection {
    std::vector<StreamEdge> edges;
    std::vector<VertexRun> runs;
};

/** Both reordered views of one input batch. */
struct ReorderedBatch {
    /** Sorted by source (drives out-edge updates). */
    ReorderedDirection by_src;
    /** Sorted by destination (drives in-edge updates). */
    ReorderedDirection by_dst;
    /** Original batch size (for cost accounting). */
    std::size_t batch_size = 0;
};

/**
 * Reorder `edges` for lock-free vertex-centric updates (comparison-sort
 * path, allocating fresh buffers).  Kept as the reference implementation
 * and property-test oracle; hot paths use @ref Reorderer instead.
 *
 * Cost: two parallel stable sorts of the batch plus two linear run-index
 * scans — the software overhead ABR weighs against lock savings.
 */
ReorderedBatch reorder_batch(std::span<const StreamEdge> edges,
                             ThreadPool& pool);

/** Build the run index of an already-sorted edge array. */
std::vector<VertexRun> build_runs(std::span<const StreamEdge> sorted,
                                  Direction key);

/** Host algorithm used to produce a ReorderedBatch (identical output). */
enum class ReorderMode {
    kRadix,      ///< stable counting/radix scatter, allocation-free reuse
    kComparison, ///< the paper's parallel stable sorts (oracle path)
};

const char* to_string(ReorderMode mode);

/**
 * Reusable buffers of the radix reorder pipeline.  Owned by a @ref
 * Reorderer; grows to the largest batch seen and is never shrunk, so
 * steady-state ingest reorders without touching the allocator.
 */
struct ReorderScratch {
    /** The output being built; storage persists across batches. */
    ReorderedBatch rb;
    /** Ping-pong buffer for multi-pass radix scatters. */
    std::vector<StreamEdge> tmp;
    /** Per-worker histograms / scatter offsets (worker-major rows). */
    std::vector<std::uint32_t> hist;
    /** Fused-pass destination-digit histograms (worker-major rows). */
    std::vector<std::uint32_t> hist_dst;
    /** Contiguous per-worker input chunk bounds (size workers + 1). */
    std::vector<std::size_t> bounds;
    /** Per-worker run/boundary counts for parallel run-index builds. */
    std::vector<std::uint32_t> run_counts;
    /** Per-worker max vertex id seen by the max-vertex pass. */
    std::vector<VertexId> worker_max;
};

/**
 * Reusable batch reorderer: produces the same ReorderedBatch as
 * @ref reorder_batch through the configured host algorithm, into
 * arena-owned storage that is recycled across batches.
 */
class Reorderer {
  public:
    explicit Reorderer(ReorderMode mode = ReorderMode::kRadix)
        : mode_(mode)
    {
    }

    ReorderMode mode() const { return mode_; }

    /**
     * Reorder `edges` on `pool`.  The returned reference stays valid (and
     * its buffers stay reused) until the next reorder() call.  Also records
     * the batch's max vertex id — the radix path computes it anyway (it
     * fixes the digit plan), folding away the engine's ensure-capacity
     * scan.
     */
    const ReorderedBatch& reorder(std::span<const StreamEdge> edges,
                                  ThreadPool& pool);

    /** Max vertex id of the last reordered batch (0 for an empty batch). */
    VertexId last_max_vertex() const { return max_vertex_; }

  private:
    ReorderMode mode_;
    ReorderScratch scratch_;
    VertexId max_vertex_ = 0;
};

/** Max vertex id named by `edges` (0 if empty) — the capacity scan. */
VertexId max_vertex_of(std::span<const StreamEdge> edges);

namespace detail {
/** Radix implementation (reorder_radix.cc); fills scratch.rb, returns max. */
VertexId reorder_batch_radix(std::span<const StreamEdge> edges,
                             ThreadPool& pool, ReorderScratch& scratch);
} // namespace detail

} // namespace igs::stream

#endif // IGS_STREAM_REORDER_H
