/**
 * @file
 * Simulation-backed input-aware engine (primary bench/eval frontend).
 *
 * SimEngine drives the shared ABR/OCA decision pipeline (core/ingest.h)
 * with updates executed on the deterministic Table-1 timing model: per
 * batch, the chosen update path's cycles are booked by sim::UpdateRunner
 * instead of running on real threads.  It lives in sim/ — above core/ in
 * the module-layer DAG (tools/layers.toml) — so the portable engine core
 * never depends on the simulator.
 */
#ifndef IGS_SIM_SIM_ENGINE_H
#define IGS_SIM_SIM_ENGINE_H

#include "core/engine.h"
#include "graph/adjacency_list.h"
#include "sim/update_runner.h"

namespace igs::sim {

/**
 * Simulation-backed input-aware engine.  Owns the graph, the timing
 * model, and the controllers.
 */
class SimEngine {
  public:
    /** `pool` runs the *host-side* reorder passes; the modeled Table-1
     *  cycles are independent of it (see the determinism test in
     *  tests/test_core.cc: 1 worker and N workers are bit-identical). */
    SimEngine(const core::EngineConfig& config, const MachineParams& machine,
              const SwCostParams& sw, const HauCostParams& hw,
              std::size_t num_vertices, ThreadPool& pool = default_pool());

    /** The evolving graph: the real engine's store (DESIGN.md §5). */
    graph::AdjacencyList& graph() { return graph_; }
    const graph::AdjacencyList& graph() const { return graph_; }

    /** Ingest one batch; runs ABR/OCA and the chosen update path. */
    core::BatchReport ingest(const stream::EdgeBatch& batch);

    /** True when a compute round is due (OCA may defer it). */
    bool compute_due() const { return compute_due_; }

    /**
     * Hand the accumulated modifications to the compute phase, advancing
     * the graph's snapshot epoch and stamping the work with it (the sim
     * frontend models publication; there is no host-side copy to pay).
     */
    core::PendingWork
    take_pending_work()
    {
        return pending_.hand_off(graph_.advance_epoch());
    }

    /**
     * Model a compute round of `compute_cycles` launched against the epoch
     * just handed off.  At pipeline depth >= 2 those cycles run on the
     * compute half of the machine concurrently with subsequent ingests, so
     * the following batches' update cycles are hidden under them until the
     * budget is exhausted — each such batch's BatchReport reports the
     * hidden amount in `update_hidden_cycles` (DESIGN.md §11).  At depth 1
     * the round serializes with ingest and nothing is hidden.
     */
    void note_compute_round(Cycles compute_cycles);

    /** Epoch-attributed variant: asserts the round was launched against
     *  the epoch most recently published by take_pending_work(), so a
     *  bench driving compute by hand cannot mis-book a round against a
     *  stale hand-off (bench_incremental's per-epoch cycle attribution
     *  relies on this). */
    void note_compute_round(Cycles compute_cycles, EpochId epoch);

    /** The underlying update runner (HAU/NoC inspection in benches). */
    UpdateRunner& runner() { return runner_; }

    const core::EngineConfig& config() const { return core_.config(); }

  private:
    core::detail::DecisionCore core_;
    graph::AdjacencyList graph_;
    UpdateRunner runner_;
    ThreadPool& pool_;
    /** Arena-backed reorderer, reused across batches (zero steady-state
     *  allocations on the radix path). */
    stream::Reorderer reorderer_;
    core::detail::PendingAccumulator pending_;
    bool compute_due_ = false;
    /** Remaining modeled compute cycles the next ingests can hide under
     *  (pipeline depth >= 2 only; see note_compute_round). */
    Cycles overlap_budget_ = 0;
};

} // namespace igs::sim

#endif // IGS_SIM_SIM_ENGINE_H
