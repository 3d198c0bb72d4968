#include "core/engine.h"

#include <utility>
#include <variant>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "core/ingest.h"

namespace igs::core {

namespace {

/** Decision-pipeline telemetry, resolved once (see DESIGN.md §9 naming).
 *  Shared by both engine frontends; per-batch cost is a handful of
 *  relaxed atomic increments. */
struct EngineTelemetry {
    telemetry::Counter& batches;
    telemetry::Counter& reordered_batches;
    telemetry::Counter& usc_batches;
    telemetry::Counter& hau_batches;
    telemetry::Counter& baseline_batches;
    telemetry::Counter& abr_active_batches;
    telemetry::Counter& abr_reorder_verdicts;
    telemetry::Counter& oca_probes;
    telemetry::Counter& oca_deferred_rounds;
    telemetry::Histogram& cad;
    telemetry::Histogram& overlap;
    telemetry::Gauge& instrumentation_cycles;
    telemetry::PhaseTimer& ingest_wall;

    static EngineTelemetry&
    get()
    {
        // Bucket bounds: CAD in decades around the paper's TH=465;
        // overlap in tenths of the [0,1] ratio (OCA threshold 0.25).
        static const double kCadBounds[] = {0.0,    50.0,   100.0,  250.0,
                                            465.0,  1000.0, 2500.0, 10000.0};
        static const double kOverlapBounds[] = {0.0, 0.1, 0.2, 0.25, 0.3,
                                                0.4, 0.5, 0.75, 0.9};
        auto& r = telemetry::Registry::global();
        static EngineTelemetry t{
            r.counter("core.engine.batches"),
            r.counter("core.engine.reordered_batches"),
            r.counter("core.engine.usc_batches"),
            r.counter("core.engine.hau_batches"),
            r.counter("core.engine.baseline_batches"),
            r.counter("core.abr.active_batches"),
            r.counter("core.abr.reorder_verdicts"),
            r.counter("core.oca.probes"),
            r.counter("core.oca.deferred_rounds"),
            r.histogram("core.abr.cad", kCadBounds),
            r.histogram("core.oca.overlap", kOverlapBounds),
            r.gauge("core.engine.instrumentation_cycles"),
            r.phase("core.engine.ingest_wall"),
        };
        return t;
    }

    void
    record(const BatchReport& report, bool oca_probed)
    {
        batches.inc();
        if (report.reordered) {
            reordered_batches.inc();
        } else if (report.used_hau) {
            hau_batches.inc();
        } else {
            baseline_batches.inc();
        }
        if (report.used_usc) {
            usc_batches.inc();
        }
        if (report.abr_active) {
            abr_active_batches.inc();
        }
        if (report.reordered) {
            abr_reorder_verdicts.inc();
        }
        if (report.cad.has_value()) {
            cad.record(report.cad->cad());
        }
        if (oca_probed) {
            oca_probes.inc();
            overlap.record(report.overlap);
        }
        if (report.defer_compute) {
            oca_deferred_rounds.inc();
        }
        instrumentation_cycles.add(report.instrumentation_cycles);
    }
};

/** Pipeline telemetry (DESIGN.md §11), resolved on first publication.
 *  Lazy on purpose: engines that never enter pipeline mode must not add
 *  these metrics to the registry snapshot, or every pre-pipeline golden
 *  run would grow "only in candidate" keys. */
struct PipelineTelemetry {
    telemetry::Counter& epochs;
    telemetry::Counter& dirty_vertices;
    telemetry::Counter& copied_edges;
    telemetry::Counter& stalls;
    telemetry::PhaseTimer& stall_wall;

    static PipelineTelemetry&
    get()
    {
        auto& r = telemetry::Registry::global();
        static PipelineTelemetry t{
            r.counter("core.pipeline.epochs_published"),
            r.counter("core.pipeline.dirty_vertices_copied"),
            r.counter("core.pipeline.edges_copied"),
            r.counter("core.pipeline.backpressure_stalls"),
            r.phase("core.pipeline.stall_wall"),
        };
        return t;
    }
};

/** Renumbering telemetry (DESIGN.md §16), resolved on the first scored
 *  window.  Lazy for the same reason as PipelineTelemetry: runs with
 *  renumbering disabled must not grow the registry snapshot. */
struct RenumberTelemetry {
    telemetry::Counter& total;
    telemetry::Counter& windows;
    telemetry::Gauge& ewma;

    static RenumberTelemetry&
    get()
    {
        auto& r = telemetry::Registry::global();
        static RenumberTelemetry t{
            r.counter("core.graph.renumber_total"),
            r.counter("core.graph.renumber_windows"),
            r.gauge("core.graph.renumber_locality_ewma"),
        };
        return t;
    }
};

} // namespace

const char*
to_string(UpdatePolicy policy)
{
    switch (policy) {
      case UpdatePolicy::kBaseline:
        return "baseline";
      case UpdatePolicy::kAlwaysReorder:
        return "RO";
      case UpdatePolicy::kAlwaysReorderUsc:
        return "RO+USC";
      case UpdatePolicy::kAlwaysHau:
        return "HAU-only";
      case UpdatePolicy::kAbr:
        return "ABR";
      case UpdatePolicy::kAbrUsc:
        return "ABR+USC";
      case UpdatePolicy::kAbrUscHau:
        return "ABR+USC+HAU";
    }
    return "?";
}

const char*
to_string(GraphBackend backend)
{
    switch (backend) {
      case GraphBackend::kAdjacencyList:
        return "adjacency-list";
      case GraphBackend::kHybrid:
        return "hybrid";
    }
    return "?";
}

namespace detail {

void
record_engine_telemetry(const BatchReport& report, bool oca_probed)
{
    EngineTelemetry::get().record(report, oca_probed);
}

void
record_ingest_wall(double seconds)
{
    EngineTelemetry::get().ingest_wall.add(seconds);
}

bool
DecisionCore::policy_uses_abr(UpdatePolicy p)
{
    return p == UpdatePolicy::kAbr || p == UpdatePolicy::kAbrUsc ||
           p == UpdatePolicy::kAbrUscHau;
}

bool
DecisionCore::reorder_now(UpdatePolicy p) const
{
    switch (p) {
      case UpdatePolicy::kBaseline:
      case UpdatePolicy::kAlwaysHau:
        return false;
      case UpdatePolicy::kAlwaysReorder:
      case UpdatePolicy::kAlwaysReorderUsc:
        return true;
      case UpdatePolicy::kAbr:
      case UpdatePolicy::kAbrUsc:
      case UpdatePolicy::kAbrUscHau:
        return abr_.reordering();
    }
    return false;
}

} // namespace detail

template <typename GraphT>
BasicRealTimeEngine<GraphT>::BasicRealTimeEngine(const EngineConfig& config,
                                                 std::size_t num_vertices,
                                                 ThreadPool& pool)
    : core_(config, pool), graph_(num_vertices), pool_(pool),
      reorderer_(config.reorder_mode), locality_monitor_(config.renumber)
{
    // Adaptive backends take their tier/migration thresholds from the
    // engine config; fixed-layout backends have no such hook.
    if constexpr (requires { graph_.set_tuning(config.store); }) {
        graph_.set_tuning(config.store);
    }
}

template <typename GraphT>
BasicRealTimeEngine<GraphT>::~BasicRealTimeEngine()
{
    join_inflight();
}

template <typename GraphT>
void
BasicRealTimeEngine<GraphT>::set_compute(ComputeFn fn)
{
    join_inflight();
    compute_fn_ = std::move(fn);
}

template <typename GraphT>
void
BasicRealTimeEngine<GraphT>::join_inflight()
{
    if (!inflight_.joinable()) {
        return;
    }
    const bool stalled = !inflight_done_.load(std::memory_order_acquire);
    Timer timer;
    inflight_.join();
    if (stalled) {
        const double waited = timer.seconds();
        pipeline_stats_.backpressure_stalls += 1;
        pipeline_stats_.stall_seconds += waited;
        auto& t = PipelineTelemetry::get();
        t.stalls.inc();
        t.stall_wall.add(waited);
    }
}

template <typename GraphT>
void
BasicRealTimeEngine<GraphT>::publish_epoch()
{
    // Backpressure: at depth 2 the previous epoch's round may still be in
    // flight; publication would mutate the snapshot under it, so wait.
    join_inflight();

    const EpochId epoch = graph_.advance_epoch();
    inflight_work_ = pending_.hand_off(epoch);
    const graph::PublishStats ps =
        snapshots_.publish(graph_, inflight_work_.affected, pool_);
    pipeline_stats_.epochs_published += 1;
    pipeline_stats_.dirty_vertices_copied += ps.dirty_vertices;
    pipeline_stats_.edges_copied += ps.copied_edges;
    auto& t = PipelineTelemetry::get();
    t.epochs.inc();
    t.dirty_vertices.inc(ps.dirty_vertices);
    t.copied_edges.inc(ps.copied_edges);
    // Tiered backends refresh their per-tier population gauges once per
    // epoch (a census, too costly per edge).
    if constexpr (requires { graph_.publish_tier_telemetry(); }) {
        graph_.publish_tier_telemetry();
    }

    const graph::SnapshotView view = snapshots_.view();
    if (core_.config().pipeline_depth >= 2) {
        inflight_done_.store(false, std::memory_order_release);
        // The capture outlives this scope by design: publish_epoch joins
        // the in-flight round (join_inflight above) before the next
        // publish, so the captured view can never dangle.
        // igs-lint: allow(snapshot-view-escape)
        inflight_ = std::thread([this, view]() {
            compute_fn_(view, inflight_work_);
            inflight_done_.store(true, std::memory_order_release);
        });
    } else {
        compute_fn_(view, inflight_work_);
    }
}

template <typename GraphT>
void
BasicRealTimeEngine<GraphT>::flush_pipeline()
{
    if (!compute_fn_) {
        return;
    }
    if (!pending_.empty()) {
        publish_epoch();
    }
    join_inflight();
}

template <typename GraphT>
BatchReport
BasicRealTimeEngine<GraphT>::ingest(const stream::EdgeBatch& batch)
{
    Timer timer;
    bool reorder = false;
    const stream::ReorderedBatch* reordered = detail::reorder_and_reserve(
        core_, reorderer_, graph_, batch, pool_, reorder);
    BatchReport report = detail::drive_batch(
        core_, batch, reorder, reordered, /*hau_available=*/false,
        [&](const detail::Dispatch& d, const stream::ReorderedBatch* rb,
            stream::OcaProbe* probe, BatchReport&) {
            stream::RealContext ctx(pool_, &usc_scratch_);
            if (d.reorder && d.usc) {
                stream::apply_batch_usc(graph_, batch, *rb, ctx, probe);
            } else if (d.reorder) {
                stream::apply_batch_reordered(graph_, batch, *rb, ctx,
                                              probe);
            } else {
                stream::apply_batch_baseline(graph_, batch, ctx, probe);
            }
        });
    report.wall_seconds = timer.seconds();
    detail::record_ingest_wall(report.wall_seconds);

    pending_.note_batch(batch);
    compute_due_ = !report.defer_compute;
    // Pipeline mode: the engine schedules the compute round itself.  The
    // report was fully assembled above, so depth-1 output stays
    // byte-identical to the non-pipelined engine.
    if (compute_fn_ && compute_due_) {
        publish_epoch();
    }
    // Disabled (the default) costs one branch here; the identity map
    // keeps every read/write path bit-identical to pre-indirection code.
    if (core_.config().renumber.enabled) {
        maybe_renumber(batch);
    }
    return report;
}

template <typename GraphT>
void
BasicRealTimeEngine<GraphT>::maybe_renumber(const stream::EdgeBatch& batch)
{
    if constexpr (requires {
                      graph_.apply_renumber(std::span<const VertexId>{});
                      graph_.id_map();
                  }) {
        // One window = one batch: every update touches its src row (out)
        // and dst row (in).
        for (const StreamEdge& e : batch.edges()) {
            locality_monitor_.observe(e.src);
            locality_monitor_.observe(e.dst);
        }
        renumber_stats_.locality_ewma =
            locality_monitor_.end_window(graph_.id_map());
        renumber_stats_.last_window_score =
            locality_monitor_.last_window_score();
        renumber_stats_.windows = locality_monitor_.windows();
        auto& t = RenumberTelemetry::get();
        t.windows.inc();
        t.ewma.set(renumber_stats_.locality_ewma);
        if (!locality_monitor_.should_renumber()) {
            return;
        }
        const std::size_t n = graph_.num_vertices();
        std::vector<std::uint64_t> degrees(n);
        for (std::size_t v = 0; v < n; ++v) {
            const auto lv = static_cast<VertexId>(v);
            degrees[v] = static_cast<std::uint64_t>(
                             graph_.degree(lv, Direction::kOut)) +
                         graph_.degree(lv, Direction::kIn);
        }
        graph_.apply_renumber(graph::LocalityRenumberer::plan(
            degrees, core_.config().renumber.mode));
        locality_monitor_.note_renumbered();
        renumber_stats_.renumbers += 1;
        renumber_stats_.locality_ewma = locality_monitor_.ewma();
        t.total.inc();
    } else {
        (void)batch;
    }
}

template class BasicRealTimeEngine<graph::AdjacencyList>;
template class BasicRealTimeEngine<graph::HybridStore>;

namespace {

using EngineVariant = std::variant<RealTimeEngine, HybridRealTimeEngine>;

EngineVariant
make_engine(const EngineConfig& config, std::size_t num_vertices,
            ThreadPool& pool)
{
    if (config.graph_backend == GraphBackend::kHybrid) {
        return EngineVariant(std::in_place_type<HybridRealTimeEngine>,
                             config, num_vertices, pool);
    }
    return EngineVariant(std::in_place_type<RealTimeEngine>, config,
                         num_vertices, pool);
}

} // namespace

AnyRealTimeEngine::AnyRealTimeEngine(const EngineConfig& config,
                                     std::size_t num_vertices,
                                     ThreadPool& pool)
    : engine_(make_engine(config, num_vertices, pool)),
      backend_(config.graph_backend)
{
}

BatchReport
AnyRealTimeEngine::ingest(const stream::EdgeBatch& batch)
{
    return std::visit([&](auto& e) { return e.ingest(batch); }, engine_);
}

bool
AnyRealTimeEngine::compute_due() const
{
    return std::visit([](const auto& e) { return e.compute_due(); }, engine_);
}

PendingWork
AnyRealTimeEngine::take_pending_work()
{
    return std::visit([](auto& e) { return e.take_pending_work(); }, engine_);
}

void
AnyRealTimeEngine::set_compute(ComputeFn fn)
{
    std::visit([&](auto& e) { e.set_compute(std::move(fn)); }, engine_);
}

void
AnyRealTimeEngine::flush_pipeline()
{
    std::visit([](auto& e) { e.flush_pipeline(); }, engine_);
}

graph::SnapshotView
AnyRealTimeEngine::snapshot() const
{
    return std::visit([](const auto& e) { return e.snapshot(); }, engine_);
}

const RenumberStats&
AnyRealTimeEngine::renumber_stats() const
{
    return std::visit(
        [](const auto& e) -> const RenumberStats& {
            return e.renumber_stats();
        },
        engine_);
}

const PipelineStats&
AnyRealTimeEngine::pipeline_stats() const
{
    return std::visit(
        [](const auto& e) -> const PipelineStats& {
            return e.pipeline_stats();
        },
        engine_);
}

const EngineConfig&
AnyRealTimeEngine::config() const
{
    return std::visit(
        [](const auto& e) -> const EngineConfig& { return e.config(); },
        engine_);
}

} // namespace igs::core
