#include "sim/sim_engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "core/ingest.h"

namespace igs::sim {

namespace {

/** Modeled-overlap telemetry.  Lazy on purpose: registering only on
 *  pipelined runs keeps the registry snapshot — and therefore every
 *  pre-pipeline golden — stable. */
struct OverlapTelemetry {
    telemetry::Counter& hidden_cycles;
    telemetry::Counter& overlapped_batches;

    static OverlapTelemetry&
    get()
    {
        auto& r = telemetry::Registry::global();
        static OverlapTelemetry t{
            r.counter("sim.pipeline.hidden_cycles"),
            r.counter("sim.pipeline.overlapped_batches"),
        };
        return t;
    }
};

} // namespace

SimEngine::SimEngine(const core::EngineConfig& config,
                     const MachineParams& machine, const SwCostParams& sw,
                     const HauCostParams& hw, std::size_t num_vertices,
                     ThreadPool& pool)
    : core_(config), graph_(num_vertices),
      runner_(machine, sw, hw, num_vertices, config.reorder_mode),
      pool_(pool), reorderer_(config.reorder_mode)
{
}

core::BatchReport
SimEngine::ingest(const stream::EdgeBatch& batch)
{
    namespace cd = core::detail;
    bool reorder = false;
    const stream::ReorderedBatch* rb = cd::reorder_and_reserve(
        core_, reorderer_, graph_, batch, pool_, reorder);
    core::BatchReport report = cd::drive_batch(
        core_, batch, reorder, rb, /*hau_available=*/true,
        [&](const cd::Dispatch& d, const stream::ReorderedBatch* rbi,
            stream::OcaProbe* probe, core::BatchReport& r) {
            const UpdateMode mode =
                d.reorder ? (d.usc ? UpdateMode::kReorderedUsc
                                   : UpdateMode::kReordered)
                          : (d.hau ? UpdateMode::kHau : UpdateMode::kBaseline);
            r.update = runner_.run(graph_, batch, mode, probe, rbi);
        });

    // Instrumentation work is parallel across the machine's workers; fold
    // it into the batch's modeled cycles and advance the virtual clocks so
    // subsequent batches see it.
    const double instr_parallel =
        report.instrumentation_cycles /
        static_cast<double>(runner_.machine().num_cores);
    runner_.exec().charge_all(instr_parallel);
    report.update.cycles += static_cast<Cycles>(instr_parallel);

    // Pipeline overlap model: while the previously launched compute round
    // still has cycles left on the compute half of the machine, this
    // batch's update runs concurrently with it — its cycles are "hidden"
    // up to the remaining budget.  The reported update cycles themselves
    // stay untouched (golden schema stability); consumers subtract
    // update_hidden_cycles to get the pipeline's critical-path cost.
    if (overlap_budget_ > 0) {
        const Cycles hidden =
            std::min<Cycles>(report.update.cycles, overlap_budget_);
        overlap_budget_ -= hidden;
        report.update_hidden_cycles = hidden;
        if (hidden > 0) {
            auto& t = OverlapTelemetry::get();
            t.hidden_cycles.inc(hidden);
            t.overlapped_batches.inc();
        }
    }

    pending_.note_batch(batch);
    compute_due_ = !report.defer_compute;
    return report;
}

void
SimEngine::note_compute_round(Cycles compute_cycles)
{
    overlap_budget_ = core_.config().pipeline_depth >= 2 ? compute_cycles : 0;
}

void
SimEngine::note_compute_round(Cycles compute_cycles, EpochId epoch)
{
    IGS_DCHECK(epoch == graph_.epoch());
    (void)epoch;
    note_compute_round(compute_cycles);
}

} // namespace igs::sim
