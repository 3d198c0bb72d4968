/**
 * @file
 * One-stop driver for simulated batch updates.
 *
 * Owns the virtual scheduler (worker clocks + lock table) and the HAU
 * engine for the lifetime of one stream replay, and runs each incoming
 * batch through a selected update mode.  Used by the input-aware engine
 * (src/core) and by every update-performance bench.
 */
#ifndef IGS_SIM_UPDATE_RUNNER_H
#define IGS_SIM_UPDATE_RUNNER_H

#include <memory>
#include <optional>

#include "graph/adjacency_list.h"
#include "sim/exec_sim.h"
#include "sim/hau.h"
#include "sim/machine.h"
#include "sim/sim_context.h"
#include "stream/batch.h"
#include "stream/reorder.h"
#include "stream/update_context.h"

namespace igs::sim {

/** Software/hardware update paths (paper Fig 2). */
enum class UpdateMode {
    kBaseline,     ///< edge-centric, per-vertex locks
    kReordered,    ///< RO: vertex-centric, lock-free
    kReorderedUsc, ///< RO + update search coalescing
    kHau,          ///< hardware-accelerated update
};

/** Human-readable mode name. */
const char* to_string(UpdateMode mode);

/** Simulated update driver for one stream replay. */
class UpdateRunner {
  public:
    /**
     * @param machine Table-1 architecture
     * @param sw software cost constants
     * @param hw HAU cost constants
     * @param num_vertices vertex-space size (lock-table sizing)
     * @param reorder_mode host algorithm for internal reorders (the
     *        modeled sort cost is charged identically either way)
     */
    UpdateRunner(const MachineParams& machine, const SwCostParams& sw,
                 const HauCostParams& hw, std::size_t num_vertices,
                 stream::ReorderMode reorder_mode =
                     stream::ReorderMode::kRadix);

    /**
     * Ingest `batch` into `g` using `mode`; returns the batch's modeled
     * update statistics (cycles include reordering cost for RO modes).
     *
     * @param reordered optional pre-reordered view of the batch (the
     *        input-aware engine reorders once and shares it with ABR's
     *        instrumentation); if null, RO modes reorder internally.
     */
    UpdateStats run(graph::AdjacencyList& g,
                    const stream::EdgeBatch& batch, UpdateMode mode,
                    stream::OcaProbe* probe = nullptr,
                    const stream::ReorderedBatch* reordered = nullptr);

    /** Stats of the most recent kHau run (Fig 19 / Fig 20 data). */
    const std::optional<HauRunStats>& last_hau_stats() const
    {
        return last_hau_;
    }

    /** The HAU engine (NoC inspection). */
    const HauSimulator& hau() const { return hau_; }

    ExecSim& exec() { return exec_; }
    const MachineParams& machine() const { return machine_; }

  private:
    MachineParams machine_;
    SwCostParams sw_;
    ExecSim exec_;
    HauSimulator hau_;
    /** Arena-backed reorderer for RO runs without a caller-provided view. */
    stream::Reorderer reorderer_;
    std::optional<HauRunStats> last_hau_;
};

} // namespace igs::sim

#endif // IGS_SIM_UPDATE_RUNNER_H
