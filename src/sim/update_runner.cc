#include "sim/update_runner.h"

#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "stream/updaters.h"

namespace igs::sim {

namespace {

/** Update-path telemetry, resolved once (see DESIGN.md §9 naming). */
struct UpdateTelemetry {
    telemetry::Counter& batches_baseline;
    telemetry::Counter& batches_reordered;
    telemetry::Counter& batches_reordered_usc;
    telemetry::Counter& batches_hau;
    telemetry::Counter& cycles;
    telemetry::Counter& lock_acquisitions;
    telemetry::Counter& probes;
    telemetry::Counter& inserts;
    telemetry::Counter& weight_updates;
    telemetry::Counter& removes;
    telemetry::Counter& runs;
    telemetry::Counter& sorted_edges;
    telemetry::Counter& hash_build_edges;
    telemetry::Counter& coalesced_scans;
    telemetry::Gauge& lock_wait_cycles;
    telemetry::Counter& hau_tasks;
    telemetry::Counter& hau_fifo_stall_cycles;
    telemetry::Counter& hau_lines_local;
    telemetry::Counter& hau_lines_remote;
    telemetry::Gauge& hau_l1_hits;
    telemetry::Gauge& hau_l1_misses;
    telemetry::Gauge& hau_l2_hits;
    telemetry::Gauge& hau_l2_misses;
    telemetry::Gauge& hau_l3_hits;
    telemetry::Gauge& hau_l3_misses;
    telemetry::Gauge& noc_flits_data;
    telemetry::Gauge& noc_flits_task;
    telemetry::Gauge& noc_mean_link_utilization;

    static UpdateTelemetry&
    get()
    {
        auto& r = telemetry::Registry::global();
        static UpdateTelemetry t{
            r.counter("sim.update.batches_baseline"),
            r.counter("sim.update.batches_reordered"),
            r.counter("sim.update.batches_reordered_usc"),
            r.counter("sim.update.batches_hau"),
            r.counter("sim.update.cycles"),
            r.counter("sim.update.lock_acquisitions"),
            r.counter("sim.update.probes"),
            r.counter("sim.update.inserts"),
            r.counter("sim.update.weight_updates"),
            r.counter("sim.update.removes"),
            r.counter("sim.update.runs"),
            r.counter("sim.update.sorted_edges"),
            r.counter("sim.update.hash_build_edges"),
            r.counter("sim.update.coalesced_scans"),
            r.gauge("sim.update.lock_wait_cycles"),
            r.counter("sim.hau.tasks"),
            r.counter("sim.hau.fifo_stall_cycles"),
            r.counter("sim.hau.lines_local"),
            r.counter("sim.hau.lines_remote"),
            r.gauge("sim.hau.l1_hits"),
            r.gauge("sim.hau.l1_misses"),
            r.gauge("sim.hau.l2_hits"),
            r.gauge("sim.hau.l2_misses"),
            r.gauge("sim.hau.l3_hits"),
            r.gauge("sim.hau.l3_misses"),
            r.gauge("sim.noc.flits_data"),
            r.gauge("sim.noc.flits_task"),
            r.gauge("sim.noc.mean_link_utilization"),
        };
        return t;
    }
};

void
record_update(UpdateTelemetry& t, UpdateMode mode, const UpdateStats& s)
{
    switch (mode) {
      case UpdateMode::kBaseline:
        t.batches_baseline.inc();
        break;
      case UpdateMode::kReordered:
        t.batches_reordered.inc();
        break;
      case UpdateMode::kReorderedUsc:
        t.batches_reordered_usc.inc();
        break;
      case UpdateMode::kHau:
        t.batches_hau.inc();
        break;
    }
    t.cycles.inc(s.cycles);
    t.lock_acquisitions.inc(s.lock_acquisitions);
    t.probes.inc(s.probes);
    t.inserts.inc(s.inserts);
    t.weight_updates.inc(s.weight_updates);
    t.removes.inc(s.removes);
    t.runs.inc(s.runs);
    t.sorted_edges.inc(s.sorted_edges);
    t.hash_build_edges.inc(s.hash_build_edges);
    t.coalesced_scans.inc(s.coalesced_scans);
    t.lock_wait_cycles.add(s.lock_wait_cycles);
}

} // namespace

const char*
to_string(UpdateMode mode)
{
    switch (mode) {
      case UpdateMode::kBaseline:
        return "baseline";
      case UpdateMode::kReordered:
        return "reordered";
      case UpdateMode::kReorderedUsc:
        return "reordered+usc";
      case UpdateMode::kHau:
        return "hau";
    }
    return "?";
}

UpdateRunner::UpdateRunner(const MachineParams& machine,
                           const SwCostParams& sw, const HauCostParams& hw,
                           std::size_t num_vertices,
                           stream::ReorderMode reorder_mode)
    : machine_(machine), sw_(sw),
      exec_(machine.num_cores, num_vertices * 2), hau_(machine, hw),
      reorderer_(reorder_mode)
{
}

UpdateStats
UpdateRunner::run(graph::AdjacencyList& g, const stream::EdgeBatch& batch,
                  UpdateMode mode, stream::OcaProbe* probe,
                  const stream::ReorderedBatch* reordered)
{
    exec_.ensure_lock_keys(g.num_vertices() * 2);

    UpdateTelemetry& t = UpdateTelemetry::get();
    if (mode == UpdateMode::kHau) {
        const HauRunStats h = hau_.run_batch(g, batch, probe);
        last_hau_ = h;
        UpdateStats s;
        s.cycles = h.cycles;
        s.inserts = h.inserts;
        s.weight_updates = h.weight_updates;
        s.removes = h.removes;
        record_update(t, mode, s);
        t.hau_tasks.inc(h.tasks);
        t.hau_fifo_stall_cycles.inc(h.fifo_stall_cycles);
        for (const HauCoreStats& c : h.per_core) {
            t.hau_lines_local.inc(c.local_lines);
            t.hau_lines_remote.inc(c.remote_lines);
        }
        // Cumulative model state (cache contents and NoC windows persist
        // across batches), exported as gauges rather than deltas.
        const HauCacheTotals ct = hau_.cache_totals();
        t.hau_l1_hits.set(static_cast<double>(ct.l1_hits));
        t.hau_l1_misses.set(static_cast<double>(ct.l1_misses));
        t.hau_l2_hits.set(static_cast<double>(ct.l2_hits));
        t.hau_l2_misses.set(static_cast<double>(ct.l2_misses));
        t.hau_l3_hits.set(static_cast<double>(ct.l3_hits));
        t.hau_l3_misses.set(static_cast<double>(ct.l3_misses));
        t.noc_flits_data.set(
            static_cast<double>(hau_.noc().flits(PacketClass::kData)));
        t.noc_flits_task.set(
            static_cast<double>(hau_.noc().flits(PacketClass::kTask)));
        t.noc_mean_link_utilization.set(hau_.noc().mean_link_utilization());
        return s;
    }

    if (reordered == nullptr && (mode == UpdateMode::kReordered ||
                                 mode == UpdateMode::kReorderedUsc)) {
        reordered = &reorderer_.reorder(batch.edges(), default_pool());
    }

    SimContext ctx(exec_, sw_);
    switch (mode) {
      case UpdateMode::kBaseline:
        stream::apply_batch_baseline(g, batch, ctx, probe);
        break;
      case UpdateMode::kReordered:
        stream::apply_batch_reordered(g, batch, *reordered, ctx, probe);
        break;
      case UpdateMode::kReorderedUsc:
        stream::apply_batch_usc(g, batch, *reordered, ctx, probe);
        break;
      case UpdateMode::kHau:
        break; // handled above
    }
    const UpdateStats s = ctx.stats();
    record_update(t, mode, s);
    return s;
}

} // namespace igs::sim
