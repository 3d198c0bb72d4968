/**
 * @file
 * Order-λ Clusterable Average Degree (CAD_λ), the paper's reordering
 * predictor (§4.2):
 *
 *     CAD_λ = (b − y) / x
 *
 * where b is the batch size, y the number of edges from vertices with
 * 1 ≤ degree ≤ λ, and x the number of unique vertices with degree > λ.
 * A batch is "high-degree" (reordering-friendly) when CAD_λ ≥ TH.
 *
 * CAD is a measure of the average degree of the batch's top-degree
 * vertices; batches with no vertex above λ yield CAD = 0 (never reorder),
 * matching the intent of the pseudocode (x would be 0).
 *
 * Degrees are measured on both directions — reordering clusters the batch
 * by source *and* by destination, so the batch is friendly if either side
 * clusters; the reported CAD is the max of the two sides (consistent with
 * the paper's use of "maximum in/out degree" as the indicator metric).
 */
#ifndef IGS_CORE_CAD_H
#define IGS_CORE_CAD_H

#include <cstdint>
#include <span>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "stream/reorder.h"

namespace igs::core {

/** CAD measurement of one batch. */
struct CadResult {
    double cad_out = 0.0;
    double cad_in = 0.0;
    std::uint32_t max_out_degree = 0;
    std::uint32_t max_in_degree = 0;

    double cad() const { return cad_out > cad_in ? cad_out : cad_in; }
    std::uint32_t
    max_degree() const
    {
        return max_out_degree > max_in_degree ? max_out_degree
                                              : max_in_degree;
    }
};

/** CAD_λ from a batch degree histogram N(k) with batch size `b`. */
double cad_from_histogram(const Histogram& degree_histogram, std::size_t b,
                          std::uint32_t lambda);

/**
 * CAD via the reordered-batch instrumentation path (paper pseudocode,
 * `reordering == true` branch): vertex degrees are read off the run index
 * for free.
 */
CadResult cad_from_reordered(const stream::ReorderedBatch& rb,
                             std::uint32_t lambda);

/**
 * CAD via the concurrent-hash-map instrumentation path (paper pseudocode,
 * `reordering == false` branch): per-vertex degrees are accumulated from
 * the raw batch by the workers of `pool`.  The result does not depend on
 * the pool's size.
 */
CadResult cad_from_batch(std::span<const StreamEdge> edges,
                         std::uint32_t lambda, ThreadPool& pool);

} // namespace igs::core

#endif // IGS_CORE_CAD_H
