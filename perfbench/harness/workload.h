/**
 * @file
 * The benchmark's workloads: engine configuration plus a seeded,
 * pre-generated edge stream (bulk-load batches, then streamed batches).
 */
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/incremental/analytics.h"
#include "core/engine.h"
#include "stream/batch.h"

namespace perfbench {

/** The one analytic a workload maintains and checks. */
enum class Analytic { kBfs, kSssp };

/** Input sizes; `kTiny` only serves the self-test. */
enum class Scale { kFull, kTiny };

struct Workload {
    std::string name;
    igs::core::EngineConfig engine;
    igs::analytics::incremental::IncrementalConfig analytics;
    Analytic analytic = Analytic::kBfs;
    std::size_t num_vertices = 0;
    std::size_t batch_size = 0;
    /** Loaded during set-up, no compute callback until the last one. */
    std::vector<igs::stream::EdgeBatch> bulk;
    /** Streamed untimed between set-up and the measured phase. */
    std::vector<igs::stream::EdgeBatch> warmup;
    /** Streamed in the measured phase. */
    std::vector<igs::stream::EdgeBatch> stream;
    /** Timed episodes: each sets up a fresh engine and streams `stream`. */
    int episodes = 1;

    std::uint64_t
    streamed_edges() const
    {
        return static_cast<std::uint64_t>(stream.size()) * batch_size;
    }
};

/** Names accepted by make_workload, in report order. */
const std::vector<std::string>& workload_names();

/**
 * Build workload `name` and generate all its batches from `seed`.  Each
 * episode streams the same fixed number of batches, and the episode count
 * is set so that the episodes together stream about `seconds` times the
 * workload's nominal batch rate: a run is fixed work whose streaming lasts
 * about `seconds` on a 4-vCPU host.  Throws std::invalid_argument for an
 * unknown name.
 */
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, Scale scale);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
