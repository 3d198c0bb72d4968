/**
 * @file
 * Hardware-Accelerated Update (HAU) simulator (paper §4.4).
 *
 * Models the paper's CPU-coupled acceleration on the Table-1 machine:
 *
 *  - software on the worker cores produces update tasks
 *    `<edge-data start address, current degree, target>` via `supply_task`;
 *  - each task is routed over the 4x4 mesh to the consuming core
 *    `1 + (vertex mod N)` (N = 15 worker cores; core 0 hosts the master
 *    thread, matching the SAGA-Bench setup of Fig 19);
 *  - a task MSHR is allocated on receipt and freed once the task enters the
 *    consumer's 32-entry FIFO; a full FIFO back-pressures acceptance;
 *  - the consuming cache controller fetches the vertex's edge-data
 *    cachelines through its private L1/L2 and the NUCA L3 (the vertex's
 *    lines are homed at its owning tile — first-touch arena placement), and
 *    scans each returned line with dedicated logic (no CPU search
 *    instructions);
 *  - if the target is not found, the write is handed to the core through
 *    the FIFO (append path);
 *  - insertions of a batch are fully processed before its deletions (the
 *    paper's update-ordering rule).
 *
 * The graph state is mutated through @ref igs::graph::AdjacencyList, the
 * store the real engine updates, so the scan lengths are the real
 * evolving structure's.
 */
#ifndef IGS_SIM_HAU_H
#define IGS_SIM_HAU_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "graph/adjacency_list.h"
#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/noc.h"
#include "stream/batch.h"
#include "stream/update_context.h"

namespace igs::sim {

/** Per-core HAU activity (Fig 19 / Fig 20 data). */
struct HauCoreStats {
    std::uint64_t tasks = 0;
    std::uint64_t lines = 0;        // edge-data cachelines fetched by the scan logic
    std::uint64_t local_lines = 0;  // served within the local tile
    std::uint64_t remote_lines = 0; // crossed the mesh
    double busy_cycles = 0.0;
};

/** Result of running one batch through HAU. */
struct HauRunStats {
    Cycles cycles = 0;
    std::uint64_t tasks = 0;
    std::uint64_t inserts = 0;
    std::uint64_t weight_updates = 0;
    std::uint64_t removes = 0;
    std::uint64_t fifo_stall_cycles = 0;
    std::vector<HauCoreStats> per_core;
};

/** Cumulative hit/miss totals over every HAU cache (telemetry export). */
struct HauCacheTotals {
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t l3_hits = 0;
    std::uint64_t l3_misses = 0;
};

/** The HAU engine; owns per-core caches and the NoC for one stream run. */
class HauSimulator {
  public:
    HauSimulator(const MachineParams& machine, const HauCostParams& costs);

    /**
     * Ingest `batch` into `g` through the HAU, returning modeled timing.
     * `probe`, when non-null, receives OCA's locality instrumentation
     * (the software side still maintains latest_bid).
     */
    HauRunStats run_batch(graph::AdjacencyList& g,
                          const stream::EdgeBatch& batch,
                          stream::OcaProbe* probe = nullptr);

    /** NoC carrying both data and task traffic. */
    const NocModel& noc() const { return *noc_; }

    /** Counterfactual NoC fed only the data traffic (Fig 20 comparison). */
    const NocModel& noc_without_tasks() const { return *noc_data_only_; }

    /** Cumulative hit/miss totals across all private caches + L3 slices. */
    HauCacheTotals cache_totals() const;

    const MachineParams& machine() const { return machine_; }

  private:
    struct Consumer {
        double time = 0.0;
        /** Completion times of the last `fifo_entries` accepted tasks. */
        std::vector<double> fifo_ring;
        std::size_t fifo_pos = 0;
        std::uint64_t accepted = 0;
    };

    /** One directed update sub-operation, as a HAU task. */
    struct Task {
        VertexId vertex = 0;
        Direction dir = Direction::kOut;
        double arrival = 0.0;
        std::uint32_t consumer = 0;
        std::uint32_t probes = 0;     // modeled scan length
        bool found = false;
        bool is_delete = false;
    };

    /** Outcome of one line fetch by the scan engine. */
    struct LineFetch {
        /** Cost when the fetch is overlapped with other work (the task's
         *  first line, prefetched from the task descriptor via the task
         *  MSHRs). */
        double throughput_cost = 0.0;
        /** Cost when the scan must wait for the line (subsequent lines of
         *  a scan — the paper's FSM fetches them sequentially). */
        double latency_cost = 0.0;
        bool local = true;
    };

    std::uint32_t consumer_of(VertexId v) const;
    LineFetch fetch_line(std::uint32_t core, VertexId v, Direction dir,
                         std::uint32_t line_index, Cycles now);
    void consume_phase(std::vector<std::vector<Task>>& queues,
                       HauRunStats& stats);
    /** Produce+consume all operations of one sub-phase (inserts or
     *  deletes); returns the sub-phase makespan start offset. */
    void run_subphase(graph::AdjacencyList& g,
                      const stream::EdgeBatch& batch, bool deletes,
                      stream::OcaProbe* probe, HauRunStats& stats);
    void barrier();

    MachineParams machine_;
    HauCostParams costs_;
    std::uint32_t num_consumers_;
    std::vector<CoreCacheHierarchy> core_caches_;
    std::vector<Cache> l3_slices_;
    std::unique_ptr<NocModel> noc_;
    std::unique_ptr<NocModel> noc_data_only_;
    std::vector<double> producer_time_;
    std::vector<Consumer> consumers_;
    double phase_start_ = 0.0;
    Rng jitter_;
};

} // namespace igs::sim

#endif // IGS_SIM_HAU_H
