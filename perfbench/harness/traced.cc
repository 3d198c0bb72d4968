/**
 * @file
 * The traced run.  It replays the workload's batches serially through the
 * public functions BasicRealTimeEngine composes — Reorderer::reorder,
 * core::detail::drive_batch (ABR and OCA decide; the update kernel runs in
 * its callback), advance_epoch, PendingAccumulator::note_batch/hand_off,
 * SnapshotStore::publish, publish_tier_telemetry and
 * IncrementalAnalytics::on_epoch — with a span around each call.  The glue
 * between those calls copies the engine's ingest() and publish_epoch(); a
 * change to that glue shows in the timed run's metrics but not here.
 */
#include <algorithm>
#include <fstream>
#include <iomanip>

#include "bench.h"
#include "core/ingest.h"
#include "graph/snapshot_view.h"
#include "stream/pending.h"
#include "stream/reorder.h"
#include "stream/updaters.h"

namespace perfbench {
namespace {

using igs::core::BatchReport;
using igs::stream::EdgeBatch;

enum Layer : std::uint8_t {
    kIngest,  // root: one replayed batch
    kReorder, // stream::Reorderer::reorder
    kDrive,   // core::detail::drive_batch (ABR + OCA + the update kernel)
    kUpdate,  // stream::apply_batch_* inside drive_batch
    kHandoff, // PendingAccumulator::note_batch and hand_off
    kAdvance, // the store's advance_epoch
    kPublish, // graph::SnapshotStore::publish
    kCensus,  // publish_tier_telemetry
    kCompute, // IncrementalAnalytics::on_epoch
    kLayers,
};

constexpr const char* kLayerName[kLayers] = {
    "replay.ingest",       "stream.reorder", "core.drive_batch",
    "stream.update",       "stream.handoff", "graph.advance_epoch",
    "graph.publish",       "graph.census",   "analytics.compute",
};

/** The span each layer's span nests in (kIngest is the root). */
constexpr Layer kParent[kLayers] = {kIngest, kIngest, kIngest,
                                    kDrive,  kIngest, kIngest,
                                    kIngest, kIngest, kIngest};

struct Span {
    std::uint32_t batch = 0;
    Layer layer = kIngest;
    Clock::time_point start;
    Clock::time_point end;
};

/** In-memory span log; written out once the replay is over. */
class Tracer {
  public:
    /** Spans are only kept while on (the streamed phase). */
    void
    start(std::size_t expected_spans)
    {
        spans_.reserve(expected_spans);
        on_ = true;
        origin_ = Clock::now();
    }

    void set_batch(std::uint32_t batch) { batch_ = batch; }

    void
    record(Layer layer, Clock::time_point start, Clock::time_point end)
    {
        if (on_) {
            spans_.push_back({batch_, layer, start, end});
        }
    }

    const std::vector<Span>& spans() const { return spans_; }

    void
    write(const std::string& path) const
    {
        std::ofstream out(path);
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin_)
                .count();
        };
        out << std::fixed << std::setprecision(3);
        for (const Span& s : spans_) {
            out << "{\"batch\": " << s.batch << ", \"span\": \""
                << kLayerName[s.layer] << "\", \"parent\": "
                << (s.layer == kIngest
                        ? std::string("null")
                        : "\"" + std::string(kLayerName[kParent[s.layer]]) +
                              "\"")
                << ", \"start_us\": " << us(s.start)
                << ", \"end_us\": " << us(s.end) << "}\n";
        }
    }

  private:
    std::vector<Span> spans_;
    bool on_ = false;
    std::uint32_t batch_ = 0;
    Clock::time_point origin_;
};

/** Records one span from construction to destruction. */
class ScopedSpan {
  public:
    ScopedSpan(Tracer& tracer, Layer layer)
        : tracer_(tracer), layer_(layer), start_(Clock::now())
    {
    }
    ~ScopedSpan() { tracer_.record(layer_, start_, Clock::now()); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tracer_;
    Layer layer_;
    Clock::time_point start_;
};

/** Work counted by the replay's publications and compute rounds. */
struct ReplayCounts {
    std::uint64_t epochs = 0;
    std::uint64_t dirty_vertices = 0;
    std::uint64_t copied_edges = 0;
    std::uint64_t delta_epochs = 0;
    std::uint64_t activations = 0;
};

/**
 * Serial replay of BasicRealTimeEngine<GraphT>::ingest and publish_epoch
 * (pipeline depth 1: each due round runs inline).
 */
template <typename GraphT>
class Replay {
  public:
    Replay(const Workload& w, igs::ThreadPool& pool, Tracer& tracer)
        : core_(w.engine), graph_(w.num_vertices), pool_(pool),
          reorderer_(w.engine.reorder_mode), analytics_(w.analytics),
          tracer_(tracer)
    {
        if constexpr (requires { graph_.set_tuning(w.engine.store); }) {
            graph_.set_tuning(w.engine.store);
        }
    }

    /** The engine's set_compute: due rounds run from here on. */
    void enable_compute() { compute_ = true; }

    /** The engine's take_pending_work, for bulk batches. */
    void drain() { (void)pending_.take(); }

    BatchReport
    ingest(const EdgeBatch& batch)
    {
        const bool reorder = core_.reorder_now(core_.config().policy);
        const igs::stream::ReorderedBatch* rb = nullptr;
        if (reorder) {
            {
                ScopedSpan s(tracer_, kReorder);
                rb = &reorderer_.reorder(batch.edges(), pool_);
            }
            igs::core::detail::ensure_capacity(graph_,
                                               reorderer_.last_max_vertex());
        } else {
            igs::core::detail::ensure_capacity(
                graph_, igs::stream::max_vertex_of(batch.edges()));
        }
        BatchReport report;
        {
            ScopedSpan s(tracer_, kDrive);
            report = igs::core::detail::drive_batch(
                core_, batch, reorder, rb, /*hau_available=*/false,
                [&](const igs::core::detail::Dispatch& d,
                    const igs::stream::ReorderedBatch* r,
                    igs::stream::OcaProbe* probe, BatchReport&) {
                    ScopedSpan u(tracer_, kUpdate);
                    igs::stream::RealContext ctx(pool_, &usc_scratch_);
                    if (d.reorder && d.usc) {
                        igs::stream::apply_batch_usc(graph_, batch, *r, ctx,
                                                     probe);
                    } else if (d.reorder) {
                        igs::stream::apply_batch_reordered(graph_, batch, *r,
                                                           ctx, probe);
                    } else {
                        igs::stream::apply_batch_baseline(graph_, batch, ctx,
                                                          probe);
                    }
                });
        }
        {
            ScopedSpan s(tracer_, kHandoff);
            pending_.note_batch(batch);
        }
        if (compute_ && !report.defer_compute) {
            publish_epoch();
        }
        return report;
    }

    /** The engine's flush_pipeline: publish a deferred tail. */
    void
    flush()
    {
        if (compute_ && !pending_.empty()) {
            publish_epoch();
        }
    }

    const ReplayCounts& counts() const { return counts_; }
    void reset_counts() { counts_ = {}; }

    std::vector<double>
    checked_result(const Workload& w, Report& report) const
    {
        return perfbench::checked_result(w, analytics_, snapshots_.view(),
                                         graph_.num_edges(), report);
    }

  private:
    void
    publish_epoch()
    {
        igs::EpochId epoch = 0;
        {
            ScopedSpan s(tracer_, kAdvance);
            epoch = graph_.advance_epoch();
        }
        {
            ScopedSpan s(tracer_, kHandoff);
            work_ = pending_.hand_off(epoch);
        }
        igs::graph::PublishStats ps;
        {
            ScopedSpan s(tracer_, kPublish);
            ps = snapshots_.publish(graph_, work_.affected);
        }
        if constexpr (requires { graph_.publish_tier_telemetry(); }) {
            ScopedSpan s(tracer_, kCensus);
            graph_.publish_tier_telemetry();
        }
        igs::analytics::incremental::EpochDecision d;
        {
            ScopedSpan s(tracer_, kCompute);
            d = analytics_.on_epoch(snapshots_.view(), work_);
        }
        counts_.epochs += 1;
        counts_.dirty_vertices += ps.dirty_vertices;
        counts_.copied_edges += ps.copied_edges;
        counts_.delta_epochs += d.delta ? 1 : 0;
        counts_.activations += d.work.activations;
    }

    igs::core::detail::DecisionCore core_;
    GraphT graph_;
    igs::ThreadPool& pool_;
    igs::stream::Reorderer reorderer_;
    igs::stream::UscScratch usc_scratch_;
    igs::core::detail::PendingAccumulator pending_;
    igs::graph::SnapshotStore snapshots_;
    igs::stream::PendingWork work_;
    igs::analytics::incremental::IncrementalAnalytics analytics_;
    Tracer& tracer_;
    bool compute_ = false;
    ReplayCounts counts_;
};

/** What the untraced engine run leaves for the traced replay. */
struct EngineSide {
    std::vector<BatchReport> reports; // bulk, warm-up, then streamed
    std::vector<double> result;
    double stream_seconds = 0;
    igs::core::PipelineStats pipeline;
};

bool
same_decision(const BatchReport& a, const BatchReport& b)
{
    return a.batch_id == b.batch_id && a.abr_active == b.abr_active &&
           a.reordered == b.reordered && a.used_usc == b.used_usc &&
           a.used_hau == b.used_hau && a.defer_compute == b.defer_compute;
}

/** Per-layer figures derived from the span log. */
class LayerTimes {
  public:
    LayerTimes(const std::vector<Span>& spans, std::size_t batches)
        : per_batch_(kLayers, std::vector<double>(batches + 1, 0.0)),
          calls_(kLayers, std::vector<std::uint32_t>(batches + 1, 0))
    {
        for (const Span& s : spans) {
            per_batch_[s.layer][s.batch] += seconds_between(s.start, s.end);
            calls_[s.layer][s.batch] += 1;
        }
        // The drive_batch span minus its kernel is ABR + OCA.
        for (std::size_t b = 0; b <= batches; ++b) {
            per_batch_[kDrive][b] -= per_batch_[kUpdate][b];
        }
    }

    /** Median over batches that called the layer, in ms. */
    double
    median_ms(Layer layer) const
    {
        std::vector<double> v;
        for (std::size_t b = 0; b < calls_[layer].size(); ++b) {
            if (calls_[layer][b] > 0) {
                v.push_back(1e3 * per_batch_[layer][b]);
            }
        }
        return median(v);
    }

    double
    total_s(Layer layer) const
    {
        double t = 0;
        for (double s : per_batch_[layer]) {
            t += s;
        }
        return t;
    }

  private:
    std::vector<std::vector<double>> per_batch_;
    std::vector<std::vector<std::uint32_t>> calls_;
};

template <typename GraphT>
void
replay_and_report(const Workload& w, igs::ThreadPool& pool,
                  const EngineSide& engine, const std::string& trace_path,
                  Report& report)
{
    Tracer tracer;
    Replay<GraphT> replay(w, pool, tracer);
    std::vector<BatchReport> mine;
    mine.reserve(engine.reports.size());
    for (std::size_t i = 0; i < w.bulk.size(); ++i) {
        if (i + 1 == w.bulk.size()) {
            replay.enable_compute();
        }
        mine.push_back(replay.ingest(w.bulk[i]));
        if (i + 1 < w.bulk.size()) {
            replay.drain();
        }
    }
    replay.flush();
    for (const EdgeBatch& batch : w.warmup) {
        mine.push_back(replay.ingest(batch));
    }
    replay.flush();
    replay.reset_counts();

    const std::size_t n = w.stream.size();
    tracer.start(12 * (n + 1));
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        tracer.set_batch(static_cast<std::uint32_t>(i));
        ScopedSpan root(tracer, kIngest);
        mine.push_back(replay.ingest(w.stream[i]));
    }
    {
        // A deferred tail is published by the flush: one extra slot.
        tracer.set_batch(static_cast<std::uint32_t>(n));
        ScopedSpan root(tracer, kIngest);
        replay.flush();
    }
    const double wall = seconds_between(t0, Clock::now());

    report.check(replay.checked_result(w, report) == engine.result,
                 "replayed result equals the engine's");
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
        const bool same = i < engine.reports.size() &&
                          same_decision(mine[i], engine.reports[i]);
        mismatches += same ? 0 : 1;
    }
    report.tally(mine.size(), mismatches,
                 "replayed batch decisions equal the engine's");
    report.check(mine.size() == engine.reports.size(),
                 "replay and engine saw the same number of batches");

    const LayerTimes lt(tracer.spans(), n);
    const double batches = static_cast<double>(n);
    const double edges = static_cast<double>(w.streamed_edges());
    std::size_t reordered = 0;
    std::size_t deferred = 0;
    for (std::size_t i = w.bulk.size() + w.warmup.size(); i < mine.size();
         ++i) {
        reordered += mine[i].reordered ? 1 : 0;
        deferred += mine[i].defer_compute ? 1 : 0;
    }
    const ReplayCounts& c = replay.counts();
    const double epochs = std::max<double>(1.0, static_cast<double>(c.epochs));
    const igs::core::PipelineStats& ps = engine.pipeline;
    const double published =
        std::max<double>(1.0, static_cast<double>(ps.epochs_published));

    report.add("stream.reorder_ms", lt.median_ms(kReorder), "ms");
    report.add("stream.reorder_time_share", lt.total_s(kReorder) / wall,
               "share");
    report.add("stream.reordered_batch_share",
               static_cast<double>(reordered) / batches, "share");
    report.add("stream.update_ms", lt.median_ms(kUpdate), "ms");
    report.add("stream.update_time_share", lt.total_s(kUpdate) / wall,
               "share");
    report.add("stream.handoff_ms", lt.median_ms(kHandoff), "ms");
    report.add("stream.handoff_time_share", lt.total_s(kHandoff) / wall,
               "share");
    report.add("core.decide_ms", lt.median_ms(kDrive), "ms");
    report.add("core.oca_deferred_share",
               static_cast<double>(deferred) / batches, "share");
    report.add("core.stall_ms", 1e3 * ps.stall_seconds / published, "ms");
    report.add("core.stall_share",
               static_cast<double>(ps.backpressure_stalls) / published,
               "share");
    report.add("graph.publish_ms", lt.median_ms(kPublish), "ms");
    report.add("graph.publish_time_share", lt.total_s(kPublish) / wall,
               "share");
    report.add("graph.copy_amplification",
               static_cast<double>(c.copied_edges) / edges, "ratio");
    report.add("graph.dirty_vertices",
               static_cast<double>(c.dirty_vertices) / epochs,
               "vertices/epoch");
    report.add("graph.census_ms", lt.median_ms(kCensus), "ms");
    report.add("analytics.compute_ms", lt.median_ms(kCompute), "ms");
    report.add("analytics.compute_time_share", lt.total_s(kCompute) / wall,
               "share");
    report.add("analytics.delta_share",
               static_cast<double>(c.delta_epochs) / epochs, "share");
    report.add("analytics.activations",
               static_cast<double>(c.activations) / epochs,
               "count/epoch");
    report.add("trace.overhead_share", wall / engine.stream_seconds - 1.0,
               "share");
    report.detail("replay_seconds", wall, "s");
    report.detail("engine_stream_seconds", engine.stream_seconds, "s");
    report.detail("replay_spans", static_cast<double>(tracer.spans().size()),
                  "spans");

    if (!trace_path.empty()) {
        tracer.write(trace_path);
    }
}

} // namespace

Report
run_traced(const Workload& w, igs::ThreadPool& pool,
           const std::string& trace_path)
{
    Report report;
    EngineSide engine;
    // Two engine passes; the second is measured.  The first leaves the
    // heap warm, as the measured engine pass leaves it for the replay, so
    // trace.overhead_share does not count first-touch page faults against
    // the engine.
    for (int pass = 0; pass < 2; ++pass) {
        EngineRun run(w, pool);
        run.load();
        run.warm_up();
        run.stream();
        (void)run.result_latencies_ms(report);
        engine.result = run.checked_result(report);
        engine.reports = run.untimed_reports();
        engine.reports.insert(engine.reports.end(),
                              run.stream_reports().begin(),
                              run.stream_reports().end());
        engine.stream_seconds = run.stream_seconds();
        engine.pipeline = run.stream_pipeline();
    }
    if (w.engine.graph_backend == igs::core::GraphBackend::kHybrid) {
        replay_and_report<igs::graph::HybridStore>(w, pool, engine,
                                                   trace_path, report);
    } else {
        replay_and_report<igs::graph::AdjacencyList>(w, pool, engine,
                                                     trace_path, report);
    }
    return report;
}

} // namespace perfbench
