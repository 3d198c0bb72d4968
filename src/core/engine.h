/**
 * @file
 * The input-aware streaming engine — the paper's primary contribution
 * assembled: per incoming batch, ABR decides between the software execution
 * mode (batch reordering + USC) and the baseline/hardware execution mode
 * (per-vertex-lock updates, or HAU where hardware support is modeled), and
 * OCA decides whether to aggregate the batch's compute round with the next
 * one (paper Fig 2).
 *
 * Two engine frontends share the decision logic (see core/ingest.h):
 *
 *  - sim::SimEngine (src/sim/sim_engine.h) — primary for benches: updates
 *    flow through the deterministic Table-1 timing model (update cycles
 *    per batch, HAU available).  It lives in sim/ because the simulator
 *    layer sits above core/ in the module-layer DAG (tools/layers.toml):
 *    core/ must stay buildable without the timing model;
 *  - @ref RealTimeEngine — production use on a real host: updates run on
 *    real threads with real locks (HAU, being hardware, degrades to the
 *    baseline path for reordering-adverse batches — exactly the paper's
 *    SW-only deployment).
 */
#ifndef IGS_CORE_ENGINE_H
#define IGS_CORE_ENGINE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <variant>
#include <vector>

#include "core/abr.h"
#include "core/oca.h"
#include "graph/adjacency_list.h"
#include "graph/hybrid_store.h"
#include "graph/renumber.h"
#include "graph/snapshot_view.h"
#include "graph/store_tuning.h"
#include "stream/batch.h"
#include "stream/compute_policy.h"
#include "stream/pending.h"
#include "stream/update_context.h"
#include "stream/update_stats.h"
#include "stream/updaters.h"

namespace igs::core {

/** Update-phase policy: which paths may the engine choose from. */
enum class UpdatePolicy {
    kBaseline,         ///< input-oblivious: never reorder
    kAlwaysReorder,    ///< input-oblivious: always RO
    kAlwaysReorderUsc, ///< input-oblivious: always RO+USC (Fig 15 left)
    kAlwaysHau,        ///< input-oblivious: HW-only (Fig 15 right)
    kAbr,              ///< ABR: friendly -> RO, adverse -> baseline
    kAbrUsc,           ///< ABR: friendly -> RO+USC, adverse -> baseline
    kAbrUscHau,        ///< full system: friendly -> RO+USC, adverse -> HAU
};

const char* to_string(UpdatePolicy policy);

/** Which live graph structure backs the real-time engine. */
enum class GraphBackend {
    kAdjacencyList, ///< per-vertex edge arrays, linear duplicate check
    kHybrid,        ///< three-tier degree-adaptive store (HybridStore)
};

const char* to_string(GraphBackend backend);

/** Engine configuration. */
struct EngineConfig {
    UpdatePolicy policy = UpdatePolicy::kAbrUscHau;
    AbrParams abr;
    OcaParams oca;
    /** Live store selection for @ref AnyRealTimeEngine (templated engines
     *  fix the backend at compile time and ignore this field). */
    GraphBackend graph_backend = GraphBackend::kAdjacencyList;
    /** Tier/migration thresholds applied to adaptive backends. */
    graph::StoreTuning store;
    /** Host algorithm producing reordered batches (identical output; the
     *  simulator charges the paper's sort cost either way). */
    stream::ReorderMode reorder_mode = stream::ReorderMode::kRadix;
    /**
     * Pipeline depth (DESIGN.md §11).  1 = serial: each due compute round
     * runs inline inside `ingest` — behavior and output byte-identical to
     * the pre-pipeline engine.  2 = one epoch of ingest-ahead: the compute
     * round for epoch k runs on its SnapshotView while the next batch's
     * update runs on the live graph; the next publication joins it first
     * (backpressure), so memory stays flat at one snapshot + one pending
     * hand-off.  Only consulted when a compute callback is registered.
     */
    unsigned pipeline_depth = 1;
    /**
     * Compute-phase policy for incremental analytics registered via
     * `set_compute` (DESIGN.md §14).  The engine itself only carries it —
     * the registered analytics bundle (analytics/incremental/analytics.h)
     * reads it and decides full-rerun vs delta-propagate per epoch from
     * the hand-off's input statistics.
     */
    stream::IncrementalPolicyParams incremental;
    /**
     * Input-aware locality renumbering (DESIGN.md §16).  Disabled by
     * default: every backend stays on the identity map and the engine's
     * output is bit-identical to the pre-indirection code.  When enabled,
     * the engine scores each batch's access locality
     * (graph::LocalityMonitor) and re-places adjacency rows
     * (graph::LocalityRenumberer + GraphT::apply_renumber) when the
     * smoothed score crosses the threshold.  External/logical vertex ids
     * are stable across renumbering.
     */
    graph::RenumberParams renumber;
};

/** Locality-renumbering activity of one engine (DESIGN.md §16). */
struct RenumberStats {
    /** Renumber passes applied to the live graph. */
    std::uint64_t renumbers = 0;
    /** Locality windows (= batches) scored so far. */
    std::uint64_t windows = 0;
    /** Smoothed locality score in (0, 1]; 1.0 = nothing to gain. */
    double locality_ewma = 1.0;
    /** Raw score of the most recent window. */
    double last_window_score = 1.0;
};

/** Everything the engine did with one batch. */
struct BatchReport {
    std::uint64_t batch_id = 0;
    bool abr_active = false;
    bool reordered = false;
    bool used_usc = false;
    bool used_hau = false;
    std::optional<CadResult> cad;
    double overlap = 0.0;
    bool defer_compute = false;
    /** Modeled ABR+OCA instrumentation cycles included in `update`. */
    double instrumentation_cycles = 0.0;
    /** Modeled update statistics (sim::SimEngine; zero for
     *  RealTimeEngine). */
    stream::UpdateStats update;
    /** Modeled update cycles hidden under the previous epoch's compute
     *  round (sim::SimEngine at pipeline depth >= 2; zero otherwise —
     *  never serialized into the shared golden stream schema). */
    Cycles update_hidden_cycles = 0;
    /** Wall-clock update seconds (RealTimeEngine; zero for SimEngine). */
    double wall_seconds = 0.0;
};

/** Batch-span work handed to the compute phase (stream/pending.h). */
using PendingWork = stream::PendingWork;

namespace detail {

/** Shared ABR/OCA decision plumbing between the two engine frontends. */
class DecisionCore {
  public:
    /** ABR's hash-map path runs on default_pool(), built on first use. */
    explicit DecisionCore(const EngineConfig& config)
        : config_(config), abr_(config.abr), oca_(config.oca)
    {
    }

    /** ABR's hash-map path runs on `pool` (the engine's own). */
    DecisionCore(const EngineConfig& config, ThreadPool& pool)
        : DecisionCore(config)
    {
        pool_ = &pool;
    }

    const EngineConfig& config() const { return config_; }
    AbrController& abr() { return abr_; }
    OcaController& oca() { return oca_; }
    /** The pool handed to AbrController::decide (nullptr: its default). */
    ThreadPool* pool() const { return pool_; }

    /** Does `policy` ever reorder / need ABR instrumentation? */
    static bool policy_uses_abr(UpdatePolicy p);
    /** Will the engine reorder the current batch? */
    bool reorder_now(UpdatePolicy p) const;

  private:
    EngineConfig config_;
    AbrController abr_;
    OcaController oca_;
    ThreadPool* pool_ = nullptr;
};

/** Batch-to-compute accumulation now lives in stream/pending.h; the alias
 *  keeps the two engine frontends' member declarations unchanged. */
using PendingAccumulator = stream::PendingAccumulator;

} // namespace detail

/** Counters for the update/compute pipeline (see DESIGN.md §11). */
struct PipelineStats {
    /** Snapshot publications (== compute rounds scheduled). */
    std::uint64_t epochs_published = 0;
    /** Dirty vertices revisited across all publications. */
    std::uint64_t dirty_vertices_copied = 0;
    /** Directed edge entries written across all publications (only the
     *  changed part of each dirty row; graph::PublishStats). */
    std::uint64_t edges_copied = 0;
    /** Publications that had to wait for the in-flight compute round. */
    std::uint64_t backpressure_stalls = 0;
    /** Wall seconds spent in those waits. */
    double stall_seconds = 0.0;
};

/** Compute round: runs against epoch `work.epoch`'s snapshot. */
using ComputeFn =
    std::function<void(const graph::SnapshotView&, const PendingWork&)>;

/**
 * Real-host input-aware engine: actual threads, actual locks.  Timing is
 * wall-clock; HAU is unavailable (hardware) so kAbrUscHau and kAlwaysHau
 * degrade to their software equivalents.
 *
 * Templated over the live graph structure (the backend).  `GraphT` must
 * provide the mutable-store surface AdjacencyList defines: ensure_vertices,
 * apply_insert/apply_remove, lock(v,dir), latest_bid/exchange_latest_bid,
 * epoch()/advance_epoch(), and the graph::GraphStore read path for
 * snapshot publication.  Backends with extra hooks are detected with
 * `if constexpr (requires ...)`: a `set_tuning(StoreTuning)` member
 * receives EngineConfig::store at construction, and a
 * `publish_tier_telemetry()` member is invoked at each epoch publication
 * (HybridStore implements both).  Use the @ref RealTimeEngine /
 * @ref HybridRealTimeEngine aliases, or @ref AnyRealTimeEngine to pick
 * the backend at runtime from EngineConfig::graph_backend.
 *
 * Threading contract (see DESIGN.md §8, §11): `ingest` is externally
 * serialized — one batch in flight at a time.  Parallelism happens *inside*
 * an ingest, where the update kernels synchronize via the graph's
 * per-vertex SpinlockArray (baseline path) or run-ownership (reordered
 * paths, lock-free by construction).  The engine's own members
 * (reorderer_, usc_scratch_, pending_) are only touched from the ingest
 * caller or from per-worker slots, so they need no locks of their own.
 *
 * Pipeline mode: register a compute round via `set_compute`.  When a
 * round is due (OCA permitting), `ingest` publishes a snapshot epoch and
 * runs the callback — inline at pipeline_depth 1, or on a dedicated
 * compute thread at depth >= 2 so the next batch's update overlaps it.
 * The compute thread touches only the immutable SnapshotView and its own
 * PendingWork; the ingest thread joins it before the next publication
 * (bounded one-epoch ingest-ahead = backpressure).  Without a registered
 * callback the engine behaves exactly as before: callers poll
 * `compute_due` and drain `take_pending_work` themselves.
 */
template <typename GraphT>
class BasicRealTimeEngine {
  public:
    /** Compute round: runs against epoch `work.epoch`'s snapshot. */
    using ComputeFn = core::ComputeFn;

    BasicRealTimeEngine(const EngineConfig& config, std::size_t num_vertices,
                        ThreadPool& pool = default_pool());
    ~BasicRealTimeEngine();

    GraphT& graph() { return graph_; }
    const GraphT& graph() const { return graph_; }

    BatchReport ingest(const stream::EdgeBatch& batch);

    bool compute_due() const { return compute_due_; }
    PendingWork take_pending_work() { return pending_.take(); }

    /**
     * Enter pipeline mode: `fn` becomes the compute round scheduled at
     * each epoch publication.  Call before the first `ingest`; replacing
     * the callback mid-stream first joins any in-flight round.
     */
    void set_compute(ComputeFn fn);

    /**
     * Flush the pipeline: publish any still-pending work as a final epoch
     * (e.g. an OCA-deferred tail), run its compute round, and join.  Safe
     * to call repeatedly; a no-op outside pipeline mode.
     */
    void flush_pipeline();

    /** Snapshot of the latest published epoch (pipeline mode). */
    graph::SnapshotView snapshot() const { return snapshots_.view(); }

    const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

    /** Locality-renumbering activity (all zeros unless
     *  EngineConfig::renumber.enabled). */
    const RenumberStats& renumber_stats() const { return renumber_stats_; }

    const EngineConfig& config() const { return core_.config(); }

  private:
    void publish_epoch();
    void join_inflight();
    /**
     * Score the batch's access locality and renumber the live graph if
     * the ABR-style trigger fires.  Runs at the tail of `ingest`, after
     * any epoch publication: a depth-2 compute round reads only the
     * snapshot's copied rows, so re-placing live rows here is safe.
     * Compiled out for backends without apply_renumber/id_map.
     */
    void maybe_renumber(const stream::EdgeBatch& batch);

    detail::DecisionCore core_;
    GraphT graph_;
    ThreadPool& pool_;
    /** Arena-backed reorderer, reused across batches. */
    stream::Reorderer reorderer_;
    /** Per-worker USC coalescing tables, reused across batches. */
    stream::UscScratch usc_scratch_;
    detail::PendingAccumulator pending_;
    bool compute_due_ = false;
    /** Per-batch locality windows (only fed when renumbering is on). */
    graph::LocalityMonitor locality_monitor_;
    RenumberStats renumber_stats_;

    // --- pipeline state (only active once set_compute was called) -------
    ComputeFn compute_fn_;
    graph::SnapshotStore snapshots_;
    /** Work for the in-flight round; owned by the compute thread while
     *  inflight_ is joinable, reclaimed by the ingest thread after join. */
    PendingWork inflight_work_;
    std::thread inflight_;
    /** Set by the compute thread on completion; lets stall accounting
     *  distinguish a blocking join from reaping a finished round. */
    std::atomic<bool> inflight_done_{false};
    PipelineStats pipeline_stats_;
};

/** The historical engine: adjacency-list backend. */
using RealTimeEngine = BasicRealTimeEngine<graph::AdjacencyList>;
/** Three-tier hybrid-store backend (graph/hybrid_store.h). */
using HybridRealTimeEngine = BasicRealTimeEngine<graph::HybridStore>;

// Instantiated once in engine.cc for both backends.
extern template class BasicRealTimeEngine<graph::AdjacencyList>;
extern template class BasicRealTimeEngine<graph::HybridStore>;

/**
 * Runtime-backend-selected real-time engine: constructs the
 * BasicRealTimeEngine matching EngineConfig::graph_backend and forwards
 * the engine surface to it.  For callers (benches, services) whose store
 * choice is configuration, not code.
 */
class AnyRealTimeEngine {
  public:
    AnyRealTimeEngine(const EngineConfig& config, std::size_t num_vertices,
                      ThreadPool& pool = default_pool());

    GraphBackend backend() const { return backend_; }

    BatchReport ingest(const stream::EdgeBatch& batch);
    bool compute_due() const;
    PendingWork take_pending_work();
    void set_compute(ComputeFn fn);
    void flush_pipeline();
    graph::SnapshotView snapshot() const;
    const PipelineStats& pipeline_stats() const;
    const RenumberStats& renumber_stats() const;
    const EngineConfig& config() const;

    /** The concrete engine for backend `GraphT` (throws on mismatch). */
    template <typename GraphT>
    BasicRealTimeEngine<GraphT>&
    engine()
    {
        return std::get<BasicRealTimeEngine<GraphT>>(engine_);
    }

    template <typename GraphT>
    const BasicRealTimeEngine<GraphT>&
    engine() const
    {
        return std::get<BasicRealTimeEngine<GraphT>>(engine_);
    }

  private:
    /** The engines are neither movable nor copyable: the variant is
     *  initialized from a prvalue, constructing the alternative in place. */
    std::variant<RealTimeEngine, HybridRealTimeEngine> engine_;
    GraphBackend backend_;
};

} // namespace igs::core

#endif // IGS_CORE_ENGINE_H
