/**
 * @file
 * Decision + dispatch plumbing shared by the engine frontends.
 *
 * The input-aware ingest sequence — reorder-or-not via the latched ABR
 * decision, ABR instrumentation, execution-mode selection, OCA probe and
 * deferral — is identical for every frontend; only the update execution
 * differs (modeled cycles in sim::SimEngine, real threads and locks in
 * core::RealTimeEngine).  These templates capture the shared sequence so
 * the frontends can live in their proper layers (sim/ sits above core/ in
 * the module-layer DAG enforced by tools/igs_analyze.py) without
 * duplicating the decision logic.
 */
#ifndef IGS_CORE_INGEST_H
#define IGS_CORE_INGEST_H

#include "core/engine.h"
#include "stream/batch.h"
#include "stream/reorder.h"
#include "stream/update_context.h"

namespace igs::core::detail {

/** Record a finished batch into the engine telemetry (engine.cc). */
void record_engine_telemetry(const BatchReport& report, bool oca_probed);

/** Accumulate one ingest's wall-clock seconds (RealTimeEngine only). */
void record_ingest_wall(double seconds);

/** Grow a graph to cover every vertex up to `max_v`. */
template <typename Graph>
void
ensure_capacity(Graph& g, VertexId max_v)
{
    if (static_cast<std::size_t>(max_v) + 1 > g.num_vertices()) {
        g.ensure_vertices(static_cast<std::size_t>(max_v) + 1);
    }
}

/**
 * Reorder the batch (when the latched decision says so) and make sure the
 * graph covers every vertex it names.  The radix reorderer computes the max
 * vertex id inside its fused histogram pass, so reordered batches pay no
 * separate capacity scan.  Returns the reordering, or null.
 */
template <typename Graph>
const stream::ReorderedBatch*
reorder_and_reserve(DecisionCore& core, stream::Reorderer& reorderer,
                    Graph& g, const stream::EdgeBatch& batch,
                    ThreadPool& pool, bool& reorder_out)
{
    reorder_out = core.reorder_now(core.config().policy);
    if (reorder_out) {
        const stream::ReorderedBatch& rb =
            reorderer.reorder(batch.edges(), pool);
        ensure_capacity(g, reorderer.last_max_vertex());
        return &rb;
    }
    ensure_capacity(g, stream::max_vertex_of(batch.edges()));
    return nullptr;
}

/** Execution-mode selection for one batch (filled by drive_batch). */
struct Dispatch {
    bool reorder = false;
    bool usc = false;
    bool hau = false;
    bool want_probe = false;
};

/**
 * Decision + dispatch shared by the frontends.  Returns the filled report
 * (minus frontend timing); `run_update(dispatch, rb, probe, report)` runs
 * the frontend-specific update execution.
 */
template <typename RunUpdate>
BatchReport
drive_batch(DecisionCore& core, const stream::EdgeBatch& batch, bool reorder,
            const stream::ReorderedBatch* rb, bool hau_available,
            RunUpdate&& run_update)
{
    const UpdatePolicy policy = core.config().policy;
    BatchReport report;
    report.batch_id = batch.id;

    // 1. The caller reordered first if the latched decision said so —
    //    ABR's cheap instrumentation path reads that reordering's run
    //    index, and the update path reuses it outright.

    // 2. ABR instrumentation + decision latch for the following batches.
    if (DecisionCore::policy_uses_abr(policy)) {
        const AbrDecision ad =
            core.abr().decide(batch.edges(), rb, core.pool());
        report.abr_active = ad.active;
        report.cad = ad.cad;
        report.instrumentation_cycles += ad.instrumentation_cycles;
    } else {
        // Input-oblivious policies still sample locality on every n-th
        // batch so OCA stays available for the compute phase.
        report.abr_active =
            core.abr().params().n == 0
                ? false
                : ((batch.id - 1) % core.abr().params().n) == 0;
    }

    // 3. Update execution mode for this batch.
    Dispatch d;
    d.reorder = reorder;
    d.usc = reorder && (policy == UpdatePolicy::kAlwaysReorderUsc ||
                        policy == UpdatePolicy::kAbrUsc ||
                        policy == UpdatePolicy::kAbrUscHau);
    d.hau = hau_available && !reorder &&
            (policy == UpdatePolicy::kAlwaysHau ||
             policy == UpdatePolicy::kAbrUscHau);
    // OCA samples locality on ABR-active batches; batch 1 has no
    // predecessor (overlap is necessarily zero), so the first usable
    // sample is taken on batch 2 instead.
    d.want_probe = core.oca().params().enabled &&
                   ((report.abr_active && batch.id > 1) || batch.id == 2);

    report.reordered = d.reorder;
    report.used_usc = d.usc;
    report.used_hau = d.hau;

    // 4. Run the update (frontend-specific) with an OCA probe when due.
    stream::OcaProbe probe;
    run_update(d, rb, d.want_probe ? &probe : nullptr, report);
    if (core.oca().params().enabled) {
        report.instrumentation_cycles +=
            static_cast<double>(batch.size()) *
            core.oca().params().instr_cycles_per_edge;
    }

    // 5. OCA: decide whether to defer this batch's compute round.
    const OcaDecision od =
        core.oca().decide(d.want_probe ? &probe : nullptr);
    report.overlap = od.overlap;
    report.defer_compute = od.defer_compute;
    record_engine_telemetry(report, d.want_probe);
    return report;
}

} // namespace igs::core::detail

#endif // IGS_CORE_INGEST_H
