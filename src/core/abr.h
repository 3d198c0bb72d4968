/**
 * @file
 * Adaptive Batch Reordering (ABR, paper §4.2).
 *
 * Every n-th batch is "ABR-active": the batch's degree distribution is
 * instrumented (cheaply from the run index if the batch was reordered,
 * via a concurrent hash map otherwise), CAD_λ is computed, and the binary
 * reorder decision (CAD_λ ≥ TH) is latched for the following n "ABR-inert"
 * batches.  The default is to reorder (paper pseudocode: `reordering =
 * true`), so the very first batch runs reordered and is instrumented on
 * the cheap path.
 */
#ifndef IGS_CORE_ABR_H
#define IGS_CORE_ABR_H

#include <cstdint>
#include <optional>
#include <span>

#include "core/cad.h"
#include "stream/reorder.h"

namespace igs::core {

/** ABR design parameters (paper defaults: n=10, λ=256, TH=465). */
struct AbrParams {
    /** Instrumentation period: one active batch per n batches (n >= 1). */
    std::uint32_t n = 10;
    /** Degree cutoff distinguishing a batch's top-degree vertices. */
    std::uint32_t lambda = 256;
    /** Reorder iff CAD_λ >= threshold. */
    double threshold = 465.0;

    /**
     * Per-edge instrumentation cost in cycles, charged on ABR-active
     * batches (calibrated to the paper's Fig 16a overheads: ~0.90x
     * slowdown on reordered active batches, ~0.54x on non-reordered ones
     * where the TBB-style concurrent hash map is expensive).
     */
    double instr_cycles_per_edge_reordered = 30.0;
    double instr_cycles_per_edge_hashed = 260.0;
};

/** What ABR did for one batch. */
struct AbrDecision {
    /** Was this batch ABR-active (instrumented)? */
    bool active = false;
    /** The reorder decision applied to THIS batch's update. */
    bool reorder = false;
    /** CAD measured on this batch (active batches only). */
    std::optional<CadResult> cad;
    /** Modeled instrumentation overhead (cycles, whole machine). */
    double instrumentation_cycles = 0.0;
};

/** Online ABR controller. */
class AbrController {
  public:
    /** Throws std::invalid_argument if `params.n` is 0. */
    explicit AbrController(const AbrParams& params = {});

    const AbrParams& params() const { return params_; }

    /** The decision currently latched (applies to the next batch). */
    bool reordering() const { return reordering_; }

    /**
     * Process one incoming batch *before* its update: returns the decision
     * to apply to this batch and, if the batch is ABR-active, measures CAD
     * and latches the decision for the next n batches.
     *
     * @param edges the raw batch
     * @param reordered the reordered batch if the current decision is to
     *        reorder (instrumentation then reads the run index), nullptr
     *        otherwise (hash-map path)
     * @param pool the workers of the hash-map path; nullptr means
     *        default_pool(), which is built on first use
     */
    AbrDecision decide(std::span<const StreamEdge> edges,
                       const stream::ReorderedBatch* reordered,
                       ThreadPool* pool = nullptr);

  private:
    AbrParams params_;
    bool reordering_ = true; // paper default: RO
    std::uint64_t batch_counter_ = 0;
};

} // namespace igs::core

#endif // IGS_CORE_ABR_H
