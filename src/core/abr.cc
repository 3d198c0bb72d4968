#include "core/abr.h"

namespace igs::core {

AbrDecision
AbrController::decide(std::span<const StreamEdge> edges,
                      const stream::ReorderedBatch* reordered)
{
    AbrDecision d;
    d.reorder = reordering_;
    d.active = (batch_counter_ % params_.n) == 0;
    ++batch_counter_;
    if (!d.active || edges.empty()) {
        return d;
    }

    // Instrumentation path depends on whether this batch runs reordered:
    // a reordered batch's degrees fall out of the run index (cheap); a
    // non-reordered batch needs the concurrent hash map (expensive).
    if (reordering_ && reordered != nullptr) {
        d.cad = cad_from_reordered(*reordered, params_.lambda);
        d.instrumentation_cycles =
            static_cast<double>(edges.size()) *
            params_.instr_cycles_per_edge_reordered;
    } else {
        d.cad = cad_from_batch(edges, params_.lambda);
        d.instrumentation_cycles =
            static_cast<double>(edges.size()) *
            params_.instr_cycles_per_edge_hashed;
    }

    reordering_ = d.cad->cad() >= params_.threshold;
    return d;
}

} // namespace igs::core
