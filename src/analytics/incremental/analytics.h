/**
 * @file
 * IncrementalAnalytics — the policy-driven bundle of memoized kernels.
 *
 * One object owns the three epoch-persistent kernels (PageRank, Sssp,
 * Bfs) and, per epoch, makes the input-aware full-vs-delta call from
 * the hand-off's batch statistics (stream/compute_policy.h): delta
 * rounds seed from the hand-off's dirty set and edge deltas, full
 * reruns refresh the memo state from scratch.  The first epoch always
 * runs full (delta propagation needs a converged baseline to correct).
 *
 * Works against any graph read path: a live store in a drain loop, the
 * engine's SnapshotView in pipeline mode (wire it up with @ref attach,
 * which registers the bundle via BasicRealTimeEngine::set_compute), or
 * the simulator's AdjacencyList (bench_incremental).
 *
 * Telemetry (core.analytics.incr_*) is registered lazily on the first
 * epoch so non-incremental runs keep their registry snapshot — and
 * their goldens — unchanged.
 */
#ifndef IGS_ANALYTICS_INCREMENTAL_ANALYTICS_H
#define IGS_ANALYTICS_INCREMENTAL_ANALYTICS_H

#include <cstdint>
#include <utility>

#include "analytics/compute_meter.h"
#include "analytics/incremental/bfs.h"
#include "analytics/incremental/pagerank.h"
#include "analytics/incremental/sssp.h"
#include "analytics/pagerank.h"
#include "common/telemetry.h"
#include "common/types.h"
#include "graph/graph_store.h"
#include "graph/snapshot_view.h"
#include "stream/compute_policy.h"
#include "stream/pending.h"

namespace igs::analytics::incremental {

/** Bundle configuration. */
struct IncrementalConfig {
    /** Full-vs-delta policy and its kAuto thresholds. */
    stream::IncrementalPolicyParams policy;
    PageRankParams pagerank;
    VertexId sssp_source = 0;
    VertexId bfs_source = 0;
    bool run_pagerank = true;
    bool run_sssp = true;
    bool run_bfs = true;
};

/** What one epoch's compute round decided and cost. */
struct EpochDecision {
    EpochId epoch = 0;
    /** True when the round propagated deltas from the dirty set. */
    bool delta = false;
    stream::EpochInputStats stats;
    /** Work counted across this epoch's kernel runs. */
    ComputeStats work;
};

/** The three memoized kernels behind one per-epoch policy decision. */
class IncrementalAnalytics {
  public:
    explicit IncrementalAnalytics(const IncrementalConfig& config = {})
        : config_(config), pagerank_(config.pagerank),
          sssp_(config.sssp_source), bfs_(config.bfs_source)
    {
    }

    const IncrementalConfig& config() const { return config_; }
    const PageRank& pagerank() const { return pagerank_; }
    const Sssp& sssp() const { return sssp_; }
    const Bfs& bfs() const { return bfs_; }
    ComputeMeter& meter() { return meter_; }
    const ComputeMeter& meter() const { return meter_; }
    std::uint64_t epochs() const { return epochs_; }
    std::uint64_t delta_epochs() const { return delta_epochs_; }

    /**
     * Run the epoch's compute round over `g` (the published state the
     * hand-off `work` describes).  Decides full-vs-delta, runs the
     * enabled kernels, and records core.analytics.incr_* telemetry.
     */
    template <typename Graph>
        requires graph::GraphReadPath<Graph>
    EpochDecision
    on_epoch(const Graph& g, const stream::PendingWork& work)
    {
        EpochDecision d;
        d.epoch = work.epoch;
        d.stats = stream::EpochInputStats::measure(work, g.num_vertices());
        d.delta = warm_ && stream::use_delta(config_.policy, d.stats);
        const ComputeStats before = meter_.stats();
        if (d.delta) {
            run_delta(g, work);
        } else {
            run_full(g, work.epoch);
        }
        d.work = stats_delta(meter_.stats(), before);
        warm_ = true;
        ++epochs_;
        delta_epochs_ += d.delta ? 1 : 0;
        record_telemetry(d);
        return d;
    }

  private:
    template <typename Graph>
    void
    run_full(const Graph& g, EpochId epoch)
    {
        if (config_.run_pagerank) {
            meter_.round_on(epoch);
            pagerank_.full_rerun(g, &meter_);
        }
        if (config_.run_sssp) {
            meter_.round_on(epoch);
            sssp_.full_rerun(g, &meter_);
        }
        if (config_.run_bfs) {
            meter_.round_on(epoch);
            bfs_.full_rerun(g, &meter_);
        }
    }

    template <typename Graph>
    void
    run_delta(const Graph& g, const stream::PendingWork& work)
    {
        if (config_.run_pagerank) {
            meter_.round_on(work.epoch);
            pagerank_.delta_propagate(g, work.affected, &meter_);
        }
        if (config_.run_sssp) {
            meter_.round_on(work.epoch);
            sssp_.delta_update(g, work.inserted, work.deleted, &meter_);
        }
        if (config_.run_bfs) {
            meter_.round_on(work.epoch);
            bfs_.delta_update(g, work.inserted, work.deleted, &meter_);
        }
    }

    /** Lazy handles: registration only on incremental runs, keeping the
     *  registry snapshot of every pre-§14 golden stable. */
    struct IncrTelemetry {
        telemetry::Counter& epochs;
        telemetry::Counter& delta_epochs;
        telemetry::Counter& full_epochs;
        telemetry::Counter& seed_vertices;
        telemetry::Counter& activations;
        telemetry::Counter& traversals;
        telemetry::Counter& dirty_vertices;

        static IncrTelemetry&
        get()
        {
            auto& r = telemetry::Registry::global();
            static IncrTelemetry t{
                r.counter("core.analytics.incr_epochs"),
                r.counter("core.analytics.incr_delta_epochs"),
                r.counter("core.analytics.incr_full_epochs"),
                r.counter("core.analytics.incr_seed_vertices"),
                r.counter("core.analytics.incr_activations"),
                r.counter("core.analytics.incr_traversals"),
                r.counter("core.analytics.incr_dirty_vertices"),
            };
            return t;
        }
    };

    void
    record_telemetry(const EpochDecision& d)
    {
        auto& t = IncrTelemetry::get();
        t.epochs.inc();
        (d.delta ? t.delta_epochs : t.full_epochs).inc();
        t.seed_vertices.inc(d.work.seeds);
        t.activations.inc(d.work.activations);
        t.traversals.inc(d.work.traversals);
        t.dirty_vertices.inc(d.stats.dirty_vertices);
    }

    IncrementalConfig config_;
    PageRank pagerank_;
    Sssp sssp_;
    Bfs bfs_;
    ComputeMeter meter_;
    bool warm_ = false;
    std::uint64_t epochs_ = 0;
    std::uint64_t delta_epochs_ = 0;
};

/**
 * Register `analytics` as `engine`'s pipeline compute round: each
 * published epoch runs on_epoch over the epoch's SnapshotView and
 * PendingWork (BasicRealTimeEngine::set_compute; at pipeline depth 2
 * the round overlaps the next batch's ingest — the snapshot and the
 * hand-off are the *published* epoch's, never the in-flight one, which
 * tests/test_pipeline.cc pins).  `analytics` must outlive the engine's
 * pipeline (or the next set_compute/flush).
 */
template <typename Engine>
void
attach(Engine& engine, IncrementalAnalytics& analytics)
{
    engine.set_compute([&analytics](const graph::SnapshotView& snap,
                                    const stream::PendingWork& work) {
        analytics.on_epoch(snap, work);
    });
}

} // namespace igs::analytics::incremental

#endif // IGS_ANALYTICS_INCREMENTAL_ANALYTICS_H
