/**
 * @file
 * Shared pieces of the timed and traced runs: the report a run prints, and
 * the engine under test set up from a workload's bulk batches.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "analytics/incremental/analytics.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run prints: metrics, result checks, and context lines. */
struct Report {
    /** The contract metrics of this mode, printed and emitted as JSON. */
    std::vector<Metric> metrics;
    /** Printed beside the metrics; not part of the JSON result. */
    std::vector<Metric> details;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(std::string name, double value, std::string unit);
    void detail(std::string name, double value, std::string unit);
    /** Count one result check; a failed one is also printed on stderr. */
    void check(bool passed, const std::string& what);
    /** Count `checks` result checks of which `failures` failed. */
    void tally(std::uint64_t checks, std::uint64_t failures,
               const std::string& what);
};

/**
 * The workload's analytic result (BFS hops or SSSP distances) as doubles,
 * after comparing it with the from-scratch kernel on `snap` and the
 * snapshot's edge count with the live graph's (`live_edges`).  Must match
 * exactly: the incremental kernels settle to the same least fixpoint.
 */
std::vector<double> checked_result(
    const Workload& w,
    const igs::analytics::incremental::IncrementalAnalytics& analytics,
    const igs::graph::SnapshotView& snap, igs::EdgeId live_edges,
    Report& report);

/** Median of `v` (0 when empty); sorts `v`. */
double median(std::vector<double>& v);

/** Nearest-rank percentile `p` in (0, 1] of `v`; sorts `v`. */
double percentile(std::vector<double>& v, double p);

/**
 * The engine under test with the benchmark's compute callback attached.
 * The callback runs the workload's incremental analytic and stamps the end
 * of each compute round, so each batch's result latency can be measured
 * from its ingest() call to the end of the round whose epoch covers it.
 */
class EngineRun {
  public:
    EngineRun(const Workload& w, igs::ThreadPool& pool);

    EngineRun(const EngineRun&) = delete;
    EngineRun& operator=(const EngineRun&) = delete;

    /**
     * Set-up: bulk-load through ingest() with the pending work drained and
     * no callback, register the callback before the last bulk batch, then
     * flush so the first publication and full compute round are done.
     */
    void load();

    /** Stream the warm-up batches untimed, then flush the pipeline. */
    void warm_up();

    /** Stream every measured batch of the workload, then flush the
     *  pipeline. */
    void stream();

    /** The final result, checked as checked_result() describes. */
    std::vector<double> checked_result(Report& report) const;

    /** Per-batch result latencies of the streamed batches, in ms. */
    std::vector<double> result_latencies_ms(Report& report) const;

    double stream_seconds() const { return stream_seconds_; }
    double stream_cpu_seconds() const { return stream_cpu_seconds_; }
    /** Reports of the bulk-load and warm-up batches, in ingest order. */
    const std::vector<igs::core::BatchReport>& untimed_reports() const
    {
        return untimed_reports_;
    }
    const std::vector<igs::core::BatchReport>& stream_reports() const
    {
        return stream_reports_;
    }
    /** Pipeline counters of the streamed phase only. */
    const igs::core::PipelineStats& stream_pipeline() const
    {
        return stream_pipeline_;
    }

  private:
    struct Round {
        std::uint32_t batches = 0;
        Clock::time_point end;
    };

    igs::EdgeId live_edges() const;

    const Workload& w_;
    igs::analytics::incremental::IncrementalAnalytics analytics_;
    /** Written by the compute callback only; read after a flush joins it. */
    std::vector<Round> rounds_;
    /** Rounds before the measured phase (set-up and warm-up). */
    std::size_t untimed_rounds_ = 0;
    std::vector<Clock::time_point> ingest_start_;
    std::vector<igs::core::BatchReport> untimed_reports_;
    std::vector<igs::core::BatchReport> stream_reports_;
    igs::core::PipelineStats stream_pipeline_;
    double stream_seconds_ = 0;
    double stream_cpu_seconds_ = 0;
    /** Declared last: destroyed (and its compute thread joined) first. */
    igs::core::AnyRealTimeEngine engine_;
};

/** Timed run: end-to-end metrics with tracing off. */
Report run_timed(const Workload& w, igs::ThreadPool& pool);

/**
 * Traced run: the engine streams untraced for its pipeline counters and
 * wall time, then the same batches are replayed through each layer's public
 * functions with a span around every call.  Spans are written as JSON lines
 * to `trace_path` (skipped when empty).
 */
Report run_traced(const Workload& w, igs::ThreadPool& pool,
                  const std::string& trace_path);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
