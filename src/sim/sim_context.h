/**
 * @file
 * Simulation execution context for the stream/ update kernels.
 *
 * Implements the context concept documented in stream/update_context.h:
 * kernels run sequentially on the host while SimContext books their cost
 * onto an @ref ExecSim virtual 16-worker schedule using @ref SwCostParams.
 * The result of a kernel run is an @ref UpdateStats with the batch's
 * modeled update cycles and operation counts.
 */
#ifndef IGS_SIM_SIM_CONTEXT_H
#define IGS_SIM_SIM_CONTEXT_H

#include <cmath>
#include <cstdint>

#include "common/flat_table.h"
#include "common/types.h"
#include "sim/exec_sim.h"
#include "sim/machine.h"
#include "stream/update_stats.h"

namespace igs::sim {

/** The shared update-phase statistics vocabulary (stream/update_stats.h);
 *  aliased here so simulator code keeps its historical sim::UpdateStats
 *  spelling. */
using stream::UpdateStats;

/** Books kernel work onto a virtual worker schedule. */
class SimContext {
  public:
    /**
     * @param exec shared scheduler (owns worker clocks and lock table;
     *        persists across the batches of one stream run)
     * @param costs software cost constants
     */
    SimContext(ExecSim& exec, const SwCostParams& costs)
        : exec_(exec), costs_(costs), phase_start_(exec.now()),
          lock_wait_start_(exec.total_lock_wait())
    {
    }

    /** Modeled statistics accumulated since construction. */
    UpdateStats
    stats() const
    {
        UpdateStats s = stats_;
        s.cycles = exec_.now() - phase_start_;
        s.lock_wait_cycles = exec_.total_lock_wait() - lock_wait_start_;
        return s;
    }

    template <typename F>
    void
    for_tasks(std::size_t n, std::size_t chunk, F&& body)
    {
        // Chunk-claim overhead is amortized per task; assignment itself is
        // per-task so virtual clocks stay synchronized (see
        // ExecSim::begin_task).
        const double per_task =
            costs_.task_overhead +
            costs_.chunk_overhead / static_cast<double>(std::max<std::size_t>(chunk, 1));
        for (std::size_t i = 0; i < n; ++i) {
            exec_.begin_task(per_task);
            body(i);
        }
    }

    /** Same replay as for_tasks; the host runs sequentially, so every task
     *  executes as worker 0 (the virtual schedule still spreads the cost). */
    template <typename F>
    void
    for_worker_tasks(std::size_t n, std::size_t chunk, F&& body)
    {
        for_tasks(n, chunk,
                  [&body](std::size_t i) { body(std::size_t{0}, i); });
    }

    std::size_t workers() const { return 1; }

    /** The USC kernel's run table: the host replays every task as worker
     *  0, so one table serves every run. */
    FlatWeightTable& usc_table(std::size_t) { return usc_table_; }

    template <typename Graph, typename F>
    void
    locked_apply(Graph& g, VertexId v, Direction dir, F&& fn)
    {
        const auto r = fn();
        const std::size_t key =
            static_cast<std::size_t>(v) * 2 +
            (dir == Direction::kIn ? 1 : 0);
        // Edge-centric scans pay coherence misses (shared lines).
        exec_.locked(key, costs_.lock_acquire,
                     apply_cost(r, costs_.line_touch_shared));
        ++stats_.lock_acquisitions;
        note(r);
        (void)g;
    }

    template <typename F>
    void
    apply(F&& fn)
    {
        const auto r = fn();
        exec_.charge(apply_cost(r, costs_.line_touch));
        note(r);
    }

    void
    charge_sort(std::size_t n)
    {
        if (n == 0) {
            return;
        }
        const double levels = std::max(1.0, std::log2(static_cast<double>(n)));
        const double serial =
            static_cast<double>(n) * levels * costs_.sort_per_elem_level;
        // The fixed part (buffer allocation, fork/join latency) does not
        // parallelize; only the comparison work does.
        const double parallel =
            serial / (static_cast<double>(exec_.num_workers()) *
                      costs_.sort_parallel_efficiency) +
            costs_.sort_fixed;
        exec_.charge_all(parallel);
        stats_.sorted_edges += n;
    }

    void
    charge_pass_setup()
    {
        // Fork/join latency of a parallel region is serial.
        exec_.charge_all(costs_.pass_setup);
    }

    void
    charge_run_overhead()
    {
        exec_.charge(costs_.run_overhead);
        ++stats_.runs;
    }

    void
    charge_hash_build(std::size_t n)
    {
        exec_.charge(static_cast<double>(n) * costs_.hash_build);
        stats_.hash_build_edges += n;
    }

    void
    charge_coalesced_scan(std::size_t scanned_len, std::size_t hash_probes,
                          std::size_t inserts)
    {
        exec_.charge(costs_.lines(std::max(
                         1.0, static_cast<double>(scanned_len))) *
                         costs_.line_touch +
                     static_cast<double>(hash_probes) * costs_.hash_probe +
                     static_cast<double>(inserts) * costs_.insert);
        ++stats_.coalesced_scans;
        stats_.inserts += inserts;
        stats_.probes += scanned_len;
    }

    void
    end_phase()
    {
        exec_.end_phase();
    }

  private:
    /** Cycles of one duplicate-check-and-apply, from its ApplyResult. */
    template <typename R>
    double
    apply_cost(const R& r, double line_cost) const
    {
        // Even a zero-probe scan touches one line (array metadata/slot 0).
        const double lines = costs_.lines(
            std::max(1.0, static_cast<double>(r.probes)));
        const double scan =
            static_cast<double>(r.probes) * costs_.probe + lines * line_cost;
        // Insert if the scan found nothing; weight-accumulate or remove if
        // it did (remove vs update is not distinguishable here; the caller
        // counts removes via note()).
        const double tail = r.found ? costs_.weight_update : costs_.insert;
        return scan + tail;
    }

    template <typename R>
    void
    note(const R& r)
    {
        stats_.probes += r.probes;
        if (r.found) {
            ++stats_.weight_updates;
        } else {
            ++stats_.inserts;
        }
    }

    ExecSim& exec_;
    const SwCostParams& costs_;
    Cycles phase_start_;
    double lock_wait_start_ = 0.0;
    UpdateStats stats_;
    FlatWeightTable usc_table_;
};

} // namespace igs::sim

#endif // IGS_SIM_SIM_CONTEXT_H
