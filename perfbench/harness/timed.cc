#include <algorithm>
#include <cmath>
#include <iostream>

#include "analytics/sssp.h"
#include "analytics/traversal.h"
#include "bench.h"
#include "host.h"

namespace perfbench {

using igs::core::GraphBackend;

void
Report::add(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Report::detail(std::string name, double value, std::string unit)
{
    details.push_back({std::move(name), value, std::move(unit)});
}

void
Report::check(bool passed, const std::string& what)
{
    tally(1, passed ? 0 : 1, what);
}

void
Report::tally(std::uint64_t checks, std::uint64_t failures,
              const std::string& what)
{
    attempted += checks;
    failed += failures;
    if (failures > 0) {
        std::cerr << "perfbench: check failed (" << failures << " of "
                  << checks << "): " << what << "\n";
    }
}

double
median(std::vector<double>& v)
{
    return v.empty() ? 0.0 : percentile(v, 0.5);
}

double
percentile(std::vector<double>& v, double p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

EngineRun::EngineRun(const Workload& w, igs::ThreadPool& pool)
    : w_(w), analytics_(w.analytics), engine_(w.engine, w.num_vertices, pool)
{
    rounds_.reserve(w.warmup.size() + w.stream.size() + 2);
    untimed_reports_.reserve(w.bulk.size() + w.warmup.size());
    stream_reports_.reserve(w.stream.size());
}

void
EngineRun::load()
{
    for (std::size_t i = 0; i < w_.bulk.size(); ++i) {
        if (i + 1 == w_.bulk.size()) {
            engine_.set_compute([this](const igs::graph::SnapshotView& snap,
                                       const igs::stream::PendingWork& work) {
                analytics_.on_epoch(snap, work);
                rounds_.push_back({work.batches, Clock::now()});
            });
        }
        untimed_reports_.push_back(engine_.ingest(w_.bulk[i]));
        if (i + 1 < w_.bulk.size()) {
            (void)engine_.take_pending_work();
        }
    }
    engine_.flush_pipeline();
}

void
EngineRun::warm_up()
{
    for (const igs::stream::EdgeBatch& batch : w_.warmup) {
        untimed_reports_.push_back(engine_.ingest(batch));
    }
    engine_.flush_pipeline();
}

void
EngineRun::stream()
{
    untimed_rounds_ = rounds_.size();
    const igs::core::PipelineStats before = engine_.pipeline_stats();
    ingest_start_.assign(w_.stream.size(), Clock::time_point{});
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < w_.stream.size(); ++i) {
        ingest_start_[i] = Clock::now();
        stream_reports_.push_back(engine_.ingest(w_.stream[i]));
    }
    engine_.flush_pipeline();
    stream_seconds_ = seconds_between(t0, Clock::now());
    stream_cpu_seconds_ = process_cpu_seconds() - cpu0;

    const igs::core::PipelineStats& after = engine_.pipeline_stats();
    stream_pipeline_.epochs_published =
        after.epochs_published - before.epochs_published;
    stream_pipeline_.dirty_vertices_copied =
        after.dirty_vertices_copied - before.dirty_vertices_copied;
    stream_pipeline_.edges_copied = after.edges_copied - before.edges_copied;
    stream_pipeline_.backpressure_stalls =
        after.backpressure_stalls - before.backpressure_stalls;
    stream_pipeline_.stall_seconds = after.stall_seconds - before.stall_seconds;
}

std::vector<double>
EngineRun::result_latencies_ms(Report& report) const
{
    // Rounds after warm-up cover the streamed batches in order; each round
    // covers PendingWork::batches of them (two when OCA aggregated).
    std::vector<double> ms;
    ms.reserve(ingest_start_.size());
    for (std::size_t r = untimed_rounds_; r < rounds_.size(); ++r) {
        for (std::uint32_t b = 0; b < rounds_[r].batches; ++b) {
            if (ms.size() < ingest_start_.size()) {
                ms.push_back(
                    1e3 * seconds_between(ingest_start_[ms.size()],
                                          rounds_[r].end));
            }
        }
    }
    report.check(ms.size() == ingest_start_.size(),
                 "every streamed batch is covered by a compute round");
    return ms;
}

igs::EdgeId
EngineRun::live_edges() const
{
    if (engine_.backend() == GraphBackend::kHybrid) {
        return engine_.engine<igs::graph::HybridStore>().graph().num_edges();
    }
    return engine_.engine<igs::graph::AdjacencyList>().graph().num_edges();
}

std::vector<double>
EngineRun::checked_result(Report& report) const
{
    return perfbench::checked_result(w_, analytics_, engine_.snapshot(),
                                     live_edges(), report);
}

std::vector<double>
checked_result(
    const Workload& w,
    const igs::analytics::incremental::IncrementalAnalytics& analytics,
    const igs::graph::SnapshotView& snap, igs::EdgeId live_edges,
    Report& report)
{
    try {
        report.check(snap.num_edges() == live_edges,
                     "snapshot edge count equals the live graph's");
        if (w.analytic == Analytic::kBfs) {
            const auto& hops = analytics.bfs().hops();
            report.check(hops == igs::analytics::bfs_distances(snap, 0),
                         "incremental BFS equals bfs_distances");
            return {hops.begin(), hops.end()};
        }
        const auto& dist = analytics.sssp().distances();
        report.check(dist == igs::analytics::static_sssp(snap, 0),
                     "incremental SSSP equals static_sssp");
        return {dist.begin(), dist.end()};
    } catch (const std::exception& e) {
        report.check(false, std::string("result check threw: ") + e.what());
        return {};
    }
}

Report
run_timed(const Workload& w, igs::ThreadPool& pool)
{
    // Each episode sets up a fresh engine and streams the same batches, so
    // the episodes repeat identical work.  Set-up, throughput and CPU time
    // are per-episode figures, reported as the median over the episodes: a
    // burst of host load that slows a minority of episodes does not move
    // them.  Likewise each batch's result latency is its median over the
    // episodes, and the percentiles are taken over those per-batch medians:
    // a batch the program makes slow is slow in every episode and sets the
    // tail, while a host stall, which hits different batches in each
    // episode, does not.
    Report report;
    std::vector<double> setup_s;
    std::vector<double> throughput;
    std::vector<double> cpu_us_per_edge;
    std::vector<std::vector<double>> batch_ms(w.stream.size());
    double reordered_share = 0;
    const double edges = static_cast<double>(w.streamed_edges());
    for (int e = 0; e < w.episodes; ++e) {
        const Clock::time_point t0 = Clock::now();
        EngineRun run(w, pool);
        run.load();
        setup_s.push_back(seconds_between(t0, Clock::now()));
        run.warm_up();
        run.stream();
        const std::vector<double> ms = run.result_latencies_ms(report);
        for (std::size_t b = 0; b < ms.size(); ++b) {
            batch_ms[b].push_back(ms[b]);
        }
        (void)run.checked_result(report);
        throughput.push_back(edges / run.stream_seconds());
        cpu_us_per_edge.push_back(1e6 * run.stream_cpu_seconds() / edges);
        const auto& reports = run.stream_reports();
        reordered_share =
            static_cast<double>(std::count_if(
                reports.begin(), reports.end(),
                [](const igs::core::BatchReport& r) { return r.reordered; })) /
            static_cast<double>(reports.size());

        const std::string ep = "." + std::to_string(e);
        report.detail("setup_s" + ep, setup_s.back(), "s");
        report.detail("throughput_eps" + ep, throughput.back(), "edges/s");
    }

    std::vector<double> latency_ms;
    latency_ms.reserve(batch_ms.size());
    for (std::vector<double>& episodes : batch_ms) {
        latency_ms.push_back(median(episodes));
    }
    report.add("throughput_eps", median(throughput), "edges/s");
    report.add("result_p50_ms", percentile(latency_ms, 0.50), "ms");
    report.add("result_p95_ms", percentile(latency_ms, 0.95), "ms");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("cpu_us_per_edge", median(cpu_us_per_edge), "us/edge");
    const std::size_t batches = latency_ms.size();
    report.detail("episodes", static_cast<double>(w.episodes), "episodes");
    report.detail("result_batches", static_cast<double>(batches), "batches");
    report.detail("result_batches_beyond_p95",
                  static_cast<double>(
                      batches - static_cast<std::size_t>(std::ceil(
                                    0.95 * static_cast<double>(batches)))),
                  "batches");
    report.detail("reordered_batch_share", reordered_share, "share");
    return report;
}

} // namespace perfbench
