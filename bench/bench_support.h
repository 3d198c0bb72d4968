/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses.
 *
 * Every bench binary replays registry dataset streams through the Table-1
 * timing model and prints the paper's rows/series as aligned text tables.
 * Workload sizes are scaled for a laptop run (see DESIGN.md); set
 * IGS_BENCH_SCALE=<float> to multiply the per-configuration batch counts
 * (e.g. 2 for a longer, lower-variance run, 0.5 for a smoke run).
 */
#ifndef IGS_BENCH_BENCH_SUPPORT_H
#define IGS_BENCH_BENCH_SUPPORT_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/compute_meter.h"
#include "analytics/incremental/pagerank.h"
#include "analytics/incremental/sssp.h"
#include "common/check.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "core/engine.h"
#include "gen/datasets.h"
#include "graph/dirty_set_view.h"
#include "graph/hybrid_store.h"
#include "graph/store_tuning.h"
#include "sim/sim_engine.h"
#include "sim/update_runner.h"
#include "stream/pending.h"

namespace igs::bench {

/**
 * The IGS_BENCH_SCALE multiplier, parsed once per process.  Announces the
 * effective scale on stderr the first time it is consulted so a scaled run
 * is never mistaken for a full one.
 */
inline double
bench_scale()
{
    static const double scale = [] {
        double s = 1.0;
        if (const char* e = std::getenv("IGS_BENCH_SCALE")) {
            s = std::atof(e);
            if (s <= 0.0) {
                std::fprintf(stderr,
                             "[bench] ignoring invalid IGS_BENCH_SCALE=%s "
                             "(must be > 0); using 1\n",
                             e);
                s = 1.0;
            } else {
                std::fprintf(stderr, "[bench] effective IGS_BENCH_SCALE=%g\n",
                             s);
            }
        }
        return s;
    }();
    return scale;
}

/**
 * Batch-count defaults per batch size, keeping total work laptop-sized.
 * Counts never drop below 2 (speedups need at least one post-warmup batch);
 * a scale small enough to hit that floor is reported once rather than
 * silently yielding the unscaled minimum.
 */
inline std::size_t
batches_for(std::size_t batch_size)
{
    std::size_t n = 4;
    if (batch_size <= 100) {
        n = 20;
    } else if (batch_size <= 1000) {
        n = 16;
    } else if (batch_size <= 10000) {
        n = 8;
    } else if (batch_size <= 100000) {
        n = 4;
    } else {
        n = 2;
    }
    const double scaled = static_cast<double>(n) * bench_scale();
    if (scaled < 2.0) {
        static bool warned = false;
        if (!warned) {
            warned = true;
            std::fprintf(stderr,
                         "[bench] IGS_BENCH_SCALE=%g clamps some batch "
                         "counts to the minimum of 2\n",
                         bench_scale());
        }
        return 2;
    }
    return static_cast<std::size_t>(scaled);
}

/** Per-batch record of one stream replay. */
struct BatchRecord {
    core::BatchReport report;
    analytics::ComputeStats compute;
    bool computed = false; // false when OCA deferred this batch's round
};

/** Totals of one replayed stream. */
struct StreamResult {
    std::vector<BatchRecord> batches;
    Cycles update_cycles = 0;
    Cycles compute_cycles = 0;

    Cycles overall_cycles() const { return update_cycles + compute_cycles; }
};

/** Which incremental algorithm drives the compute phase. */
enum class Algo { kPageRank, kSssp, kNone };

inline const char*
to_string(Algo a)
{
    switch (a) {
      case Algo::kPageRank:
        return "incremental-PR";
      case Algo::kSssp:
        return "incremental-SSSP";
      case Algo::kNone:
        return "update-only";
    }
    return "?";
}

/**
 * The figures' compute phase: the memoized analytics::incremental kernel
 * for one algorithm, settled once by an unmetered full rerun on the
 * stream's initial empty graph (a cold start is never charged), then one
 * metered delta round per compute hand-off over the hand-off's dirty set.
 */
class IncrementalCompute {
  public:
    template <typename Graph>
    IncrementalCompute(Algo algo, const Graph& initial) : algo_(algo)
    {
        if (algo_ == Algo::kPageRank) {
            pagerank_.full_rerun(initial);
        } else if (algo_ == Algo::kSssp) {
            sssp_.full_rerun(initial);
        }
    }

    /** One metered round over `g`, the graph the hand-off `work` left. */
    template <typename Graph>
    analytics::ComputeStats
    round(const Graph& g, const stream::PendingWork& work)
    {
        analytics::ComputeMeter meter;
        meter.round();
        const graph::DirtySetView<Graph> view(g, work.affected);
        if (algo_ == Algo::kPageRank) {
            pagerank_.delta_propagate(view, &meter);
        } else if (algo_ == Algo::kSssp) {
            sssp_.delta_update(view, work.inserted, work.deleted, &meter);
        }
        return meter.stats();
    }

    const analytics::incremental::PageRank& pagerank() const
    {
        return pagerank_;
    }

  private:
    Algo algo_;
    analytics::incremental::PageRank pagerank_;
    analytics::incremental::Sssp sssp_{0};
};

/**
 * Structured metrics exporter behind every bench binary's `--json=<path>`
 * flag (DESIGN.md §9).  Construct one at the top of main(); the
 * constructor strips `--json=<path>` from argv (so the bench's own flag
 * handling like `--quick` is position-independent), every subsequent
 * @ref run_stream records its replay into the active sink, and the
 * destructor writes one schema-versioned JSON document: the replayed
 * per-batch decision/cycle series plus a full telemetry registry
 * snapshot.  Without `--json` the sink is inert and records nothing.
 */
class JsonSink {
  public:
    /** Schema version stamped into every document; golden tooling and the
     *  smoke harness refuse documents with a different major. */
    static constexpr int kSchemaVersion = 1;

    JsonSink(const char* experiment, int& argc, char** argv)
        : experiment_(experiment)
    {
        IGS_CHECK_MSG(active_slot() == nullptr,
                      "only one JsonSink per process");
        for (int i = 1; i < argc;) {
            if (std::strncmp(argv[i], "--json=", 7) == 0) {
                path_ = argv[i] + 7;
                for (int j = i; j + 1 < argc; ++j) {
                    argv[j] = argv[j + 1];
                }
                --argc;
                argv[argc] = nullptr;
            } else {
                ++i;
            }
        }
        active_slot() = this;
    }

    ~JsonSink()
    {
        active_slot() = nullptr;
        if (path_.empty()) {
            return;
        }
        const std::string doc = serialize();
        std::FILE* f = std::fopen(path_.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "[bench] cannot write %s\n", path_.c_str());
            return;
        }
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "[bench] wrote %s\n", path_.c_str());
    }

    JsonSink(const JsonSink&) = delete;
    JsonSink& operator=(const JsonSink&) = delete;

    /** The process's sink, or null (run_stream records through this). */
    static JsonSink* active() { return active_slot(); }

    bool enabled() const { return !path_.empty(); }

    /** Record one replayed stream (called by run_stream). */
    void
    record_stream(std::string_view dataset, std::size_t batch_size,
                  core::UpdatePolicy policy, Algo algo, bool oca,
                  const core::AbrParams& abr, const StreamResult& result)
    {
        if (!enabled()) {
            return;
        }
        streams_.push_back(Stream{std::string(dataset), batch_size, policy,
                                  algo, oca, abr, result});
    }

  private:
    struct Stream {
        std::string dataset;
        std::size_t batch_size;
        core::UpdatePolicy policy;
        Algo algo;
        bool oca;
        core::AbrParams abr;
        StreamResult result;
    };

    static JsonSink*&
    active_slot()
    {
        static JsonSink* slot = nullptr;
        return slot;
    }

    std::string
    serialize() const
    {
        telemetry::JsonWriter w(2);
        w.begin_object();
        w.kv("schema_version", kSchemaVersion);
        w.kv("experiment", experiment_);
        w.key("host").begin_object();
        w.kv("bench_scale", bench_scale());
        // Raw IGS_BENCH_SCALE (null when unset): golden_check.py refuses
        // to diff documents produced at mismatched effective scales.
        if (const char* e = std::getenv("IGS_BENCH_SCALE")) {
            w.kv("bench_scale_env", e);
        } else {
            w.key("bench_scale_env").null();
        }
        // Adaptive-store thresholds every bench builds its stores with
        // (StoreTuning's defaults); golden diffs compare them exactly.
        const graph::StoreTuning tuning;
        w.kv("dah_hash_threshold", tuning.dah_hash_threshold);
        w.kv("hybrid_sorted_threshold", tuning.hybrid_sorted_threshold);
        w.kv("hybrid_inline_capacity",
             graph::HybridEdgeSet::kInlineCapacity);
        w.kv("wall_seconds", wall_.seconds());
        w.end_object();
        w.key("streams").begin_array();
        for (const Stream& s : streams_) {
            write_stream(w, s);
        }
        w.end_array();
        // Whole-process registry snapshot (spliced pre-serialized).
        w.key("telemetry").raw(telemetry::to_json(0));
        w.end_object();
        return w.take();
    }

    static void
    write_stream(telemetry::JsonWriter& w, const Stream& s)
    {
        w.begin_object();
        w.kv("dataset", s.dataset);
        w.kv("batch_size", static_cast<std::uint64_t>(s.batch_size));
        w.kv("policy", core::to_string(s.policy));
        w.kv("algo", to_string(s.algo));
        w.kv("oca", s.oca);
        w.key("abr").begin_object();
        w.kv("n", s.abr.n);
        w.kv("lambda", s.abr.lambda);
        w.kv("threshold", s.abr.threshold);
        w.end_object();
        w.kv("num_batches",
             static_cast<std::uint64_t>(s.result.batches.size()));
        w.kv("update_cycles", static_cast<std::uint64_t>(s.result.update_cycles));
        w.kv("compute_cycles",
             static_cast<std::uint64_t>(s.result.compute_cycles));
        w.key("batches").begin_array();
        for (const BatchRecord& rec : s.result.batches) {
            const core::BatchReport& r = rec.report;
            w.begin_object();
            w.kv("id", r.batch_id);
            w.kv("abr_active", r.abr_active);
            w.kv("reordered", r.reordered);
            w.kv("used_usc", r.used_usc);
            w.kv("used_hau", r.used_hau);
            // Key always present (null when ABR did not instrument this
            // batch) so record shapes never vary across batches.
            if (r.cad.has_value()) {
                w.kv("cad", r.cad->cad());
            } else {
                w.key("cad").null();
            }
            w.kv("overlap", r.overlap);
            w.kv("defer_compute", r.defer_compute);
            w.kv("instrumentation_cycles", r.instrumentation_cycles);
            w.kv("update_cycles", static_cast<std::uint64_t>(r.update.cycles));
            w.kv("lock_wait_cycles", r.update.lock_wait_cycles);
            w.kv("lock_acquisitions", r.update.lock_acquisitions);
            w.kv("probes", r.update.probes);
            w.kv("inserts", r.update.inserts);
            w.kv("weight_updates", r.update.weight_updates);
            w.kv("removes", r.update.removes);
            w.kv("computed", rec.computed);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    std::string experiment_;
    std::string path_;
    std::vector<Stream> streams_;
    Timer wall_;
};

/**
 * Replay `num_batches` batches of `batch_size` edges of `ds` through an
 * input-aware engine configured by `cfg`, running the chosen incremental
 * algorithm on each (possibly OCA-aggregated) snapshot.  The end of the
 * stream forces the hand-off OCA deferred past the last batch: that round
 * is still owed, and is charged to the last batch.
 */
inline StreamResult
run_stream(const gen::DatasetSpec& ds, std::size_t batch_size,
           std::size_t num_batches, const core::EngineConfig& cfg, Algo algo)
{
    sim::SimEngine engine(cfg, sim::MachineParams{}, sim::SwCostParams{},
                           sim::HauCostParams{}, ds.model.num_vertices);
    IncrementalCompute compute(algo, engine.graph());
    auto genr = ds.make_generator();

    StreamResult out;
    const analytics::ComputeCostParams ccp;
    const auto charge_round = [&](BatchRecord& rec) {
        rec.computed = true;
        rec.compute = compute.round(engine.graph(), engine.take_pending_work());
        out.compute_cycles += rec.compute.cycles(ccp);
    };
    for (std::uint64_t k = 1; k <= num_batches; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        batch.set_edges(genr.take(batch_size));
        BatchRecord rec;
        rec.report = engine.ingest(batch);
        out.update_cycles += rec.report.update.cycles;
        if (algo != Algo::kNone && engine.compute_due()) {
            charge_round(rec);
        }
        out.batches.push_back(std::move(rec));
    }
    if (algo != Algo::kNone && !out.batches.empty() &&
        !out.batches.back().computed) {
        charge_round(out.batches.back());
    }
    if (JsonSink* sink = JsonSink::active()) {
        sink->record_stream(ds.name, batch_size, cfg.policy, algo,
                            cfg.oca.enabled, cfg.abr, out);
    }
    return out;
}

/** run_stream with a default configuration apart from the policy, the ABR
 *  parameters and whether OCA is on. */
inline StreamResult
run_stream(const gen::DatasetSpec& ds, std::size_t batch_size,
           std::size_t num_batches, core::UpdatePolicy policy,
           Algo algo = Algo::kPageRank, bool oca = false,
           const core::AbrParams& abr = core::AbrParams{})
{
    core::EngineConfig cfg;
    cfg.policy = policy;
    cfg.abr = abr;
    cfg.oca.enabled = oca;
    return run_stream(ds, batch_size, num_batches, cfg, algo);
}

/** Mean of update speedups vs a baseline result. */
inline double
speedup(const StreamResult& baseline, const StreamResult& variant)
{
    return static_cast<double>(baseline.update_cycles) /
           static_cast<double>(variant.update_cycles);
}

inline double
overall_speedup(const StreamResult& baseline, const StreamResult& variant)
{
    return static_cast<double>(baseline.overall_cycles()) /
           static_cast<double>(variant.overall_cycles());
}

/** Print the standard bench banner. */
inline void
banner(const char* experiment, const char* paper_ref, const char* note)
{
    std::printf("== %s ==\n", experiment);
    std::printf("paper: %s\n", paper_ref);
    if (note != nullptr && note[0] != '\0') {
        std::printf("%s\n", note);
    }
    std::printf("\n");
}

} // namespace igs::bench

#endif // IGS_BENCH_BENCH_SUPPORT_H
