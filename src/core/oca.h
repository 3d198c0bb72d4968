/**
 * @file
 * Overlap-based Compute Aggregation (OCA, paper §5).
 *
 * During ABR-active batches, the update phase measures inter-batch
 * locality: the fraction of the batch's unique source vertices that also
 * appeared in the immediately preceding batch (via the per-vertex
 * `latest_bid` field and an @ref igs::stream::OcaProbe).  When that ratio
 * exceeds the threshold, OCA aggregates: the compute round after batch n
 * is skipped and a single round after batch n+1 analyzes both batches'
 * modifications.  Aggregation coarsens granularity by exactly one batch
 * (the paper's bound) and is trivially disabled for latency-critical
 * deployments.
 */
#ifndef IGS_CORE_OCA_H
#define IGS_CORE_OCA_H

#include <cstdint>

#include "stream/update_context.h"

namespace igs::core {

/** OCA parameters. */
struct OcaParams {
    /** Enable aggregation at all. */
    bool enabled = true;
    /** Aggregate when unique-source overlap >= threshold (paper: 0.25,
     *  chosen empirically in §5). */
    double threshold = 0.25;
    /** Modeled per-edge cost of the latest_bid/counter instrumentation
     *  (Fig 16b shows it is nearly free). */
    double instr_cycles_per_edge = 2.0;
};

/** Per-batch OCA outcome. */
struct OcaDecision {
    /** Measured overlap ratio (ABR-active batches only; else carries the
     *  last measured value). */
    double overlap = 0.0;
    /** True if the engine should *defer* this batch's compute round and
     *  fold it into the next one. */
    bool defer_compute = false;
};

/** Online OCA controller. */
class OcaController {
  public:
    explicit OcaController(const OcaParams& params = {}) : params_(params) {}

    const OcaParams& params() const { return params_; }
    bool aggregation_latched() const { return aggregate_; }
    double last_overlap() const { return last_overlap_; }

    /**
     * Consume the locality probe of one batch's update phase.
     * @param probe the probe filled during the update (non-null only on
     *        ABR-active batches)
     * @returns whether this batch's compute should be deferred
     */
    OcaDecision
    decide(const stream::OcaProbe* probe)
    {
        OcaDecision d;
        if (probe != nullptr && probe->unique_nodes() > 0) {
            last_overlap_ = probe->ratio();
            aggregate_ = params_.enabled && last_overlap_ >= params_.threshold;
        }
        d.overlap = last_overlap_;
        if (!params_.enabled || !aggregate_) {
            pending_ = false;
            d.defer_compute = false;
            return d;
        }
        // Aggregate pairs of batches: defer the first, compute after the
        // second ("coarsen the granularity by only one additional batch").
        if (!pending_) {
            pending_ = true;
            d.defer_compute = true;
        } else {
            pending_ = false;
            d.defer_compute = false;
        }
        return d;
    }

  private:
    OcaParams params_;
    bool aggregate_ = false;
    bool pending_ = false;
    double last_overlap_ = 0.0;
};

} // namespace igs::core

#endif // IGS_CORE_OCA_H
