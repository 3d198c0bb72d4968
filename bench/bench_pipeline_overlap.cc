/**
 * @file
 * Pipeline overlap harness (DESIGN.md §11).  Measures how much of the
 * modeled update phase is hidden under the previous epoch's compute round
 * when the engine runs as a two-stage pipeline (pipeline_depth = 2) versus
 * the serial baseline (depth 1), sweeping batch size over the Table-2
 * datasets and a generic R-MAT stream.
 *
 * Per stream the driver replays the ingest -> hand-off -> compute loop:
 * after each due compute round it books the round's modeled cycles with
 * SimEngine::note_compute_round(), and subsequent ingests report the
 * update cycles hidden under that budget in
 * BatchReport::update_hidden_cycles.  The headline series is the
 * update-hidden fraction (hidden / update cycles) per batch size.
 *
 * Batch counts are pinned — IGS_BENCH_SCALE deliberately has no effect —
 * so `--json` output is a deterministic function of the code and is used
 * as a golden set (tests/golden/golden_pipeline.json) in `ctest -L golden`.
 *
 * Usage: bench_pipeline_overlap [--set=rmat|table2] [--json=<path>]
 */
#include "bench_support.h"

#include <cstring>

#include "gen/rmat.h"
#include "stream/batch.h"

namespace {

using namespace igs;

/** One pinned replay: an edge source at one batch size and depth. */
struct Run {
    const char* source; // Table-2 short name, or "rmat"
    std::size_t batch_size;
    std::size_t num_batches;
    unsigned pipeline_depth;
};

struct OverlapSet {
    const char* name;
    std::vector<Run> runs;
};

/** Per-batch slice of one replay. */
struct OverlapBatch {
    std::uint64_t id = 0;
    Cycles update_cycles = 0;
    Cycles hidden_cycles = 0;
    bool computed = false;
};

/** Totals of one replay. */
struct OverlapResult {
    std::vector<OverlapBatch> batches;
    Cycles update_cycles = 0;
    Cycles compute_cycles = 0;
    Cycles hidden_cycles = 0;

    double
    hidden_fraction() const
    {
        return update_cycles == 0
                   ? 0.0
                   : static_cast<double>(hidden_cycles) /
                         static_cast<double>(update_cycles);
    }
};

/** The golden set pins both sweeps; keep each run well under a second. */
const std::vector<OverlapSet>&
sets()
{
    static const std::vector<OverlapSet> kSets = {
        {"rmat",
         {
             {"rmat", 500, 8, 1},
             {"rmat", 500, 8, 2},
             {"rmat", 1000, 8, 1},
             {"rmat", 1000, 8, 2},
             {"rmat", 5000, 6, 1},
             {"rmat", 5000, 6, 2},
         }},
        {"table2",
         {
             {"wiki", 1000, 8, 1},
             {"wiki", 1000, 8, 2},
             {"wiki", 10000, 4, 1},
             {"wiki", 10000, 4, 2},
             {"lj", 1000, 8, 1},
             {"lj", 1000, 8, 2},
         }},
    };
    return kSets;
}

/**
 * Replay the pipeline loop against any generator with `take(n)`.  OCA is
 * disabled so every batch runs a compute round: the overlap series then
 * isolates the depth effect instead of mixing in aggregation decisions.
 */
template <typename Gen>
OverlapResult
replay(Gen& genr, std::size_t num_vertices, const Run& run)
{
    core::EngineConfig cfg;
    cfg.policy = core::UpdatePolicy::kAbrUsc;
    cfg.oca.enabled = false;
    cfg.pipeline_depth = run.pipeline_depth;
    sim::SimEngine engine(cfg, sim::MachineParams{}, sim::SwCostParams{},
                          sim::HauCostParams{}, num_vertices);
    bench::IncrementalCompute pr(bench::Algo::kPageRank, engine.graph());
    const analytics::ComputeCostParams ccp;

    OverlapResult out;
    for (std::uint64_t k = 1; k <= run.num_batches; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        batch.set_edges(genr.take(run.batch_size));
        const core::BatchReport rep = engine.ingest(batch);
        OverlapBatch b{rep.batch_id, rep.update.cycles,
                       rep.update_hidden_cycles, false};
        out.update_cycles += rep.update.cycles;
        out.hidden_cycles += rep.update_hidden_cycles;
        if (engine.compute_due()) {
            const Cycles compute =
                pr.round(engine.graph(), engine.take_pending_work())
                    .cycles(ccp);
            out.compute_cycles += compute;
            engine.note_compute_round(compute);
            b.computed = true;
        }
        out.batches.push_back(b);
    }
    return out;
}

OverlapResult
run_one(const Run& run)
{
    if (std::strcmp(run.source, "rmat") == 0) {
        gen::RmatParams rp;
        rp.scale = 14;
        gen::RmatGenerator genr(rp);
        return replay(genr, genr.num_vertices(), run);
    }
    const gen::DatasetSpec& ds = gen::find_dataset(run.source);
    auto genr = ds.make_generator();
    return replay(genr, ds.model.num_vertices, run);
}

/**
 * Dedicated exporter: the overlap series (hidden cycles / fraction) is
 * not part of the shared per-batch record shape in bench_support.h's
 * JsonSink — the pre-pipeline goldens must keep their exact shape — so
 * this bench serializes its own document with the same top-level schema
 * (schema_version / experiment / host / streams / telemetry).
 */
void
write_json(const std::string& path, const char* set_name,
           const std::vector<Run>& runs,
           const std::vector<OverlapResult>& results, const Timer& wall)
{
    telemetry::JsonWriter w(2);
    w.begin_object();
    w.kv("schema_version", bench::JsonSink::kSchemaVersion);
    w.kv("experiment", "pipeline_overlap");
    w.key("host").begin_object();
    w.kv("bench_scale", bench::bench_scale());
    if (const char* e = std::getenv("IGS_BENCH_SCALE")) {
        w.kv("bench_scale_env", e);
    } else {
        w.key("bench_scale_env").null();
    }
    w.kv("wall_seconds", wall.seconds());
    w.end_object();
    w.kv("set", set_name);
    w.key("streams").begin_array();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Run& r = runs[i];
        const OverlapResult& res = results[i];
        w.begin_object();
        w.kv("dataset", r.source);
        w.kv("batch_size", static_cast<std::uint64_t>(r.batch_size));
        w.kv("pipeline_depth", static_cast<std::uint64_t>(r.pipeline_depth));
        w.kv("num_batches", static_cast<std::uint64_t>(res.batches.size()));
        w.kv("update_cycles", static_cast<std::uint64_t>(res.update_cycles));
        w.kv("compute_cycles", static_cast<std::uint64_t>(res.compute_cycles));
        w.kv("hidden_cycles", static_cast<std::uint64_t>(res.hidden_cycles));
        w.kv("hidden_fraction", res.hidden_fraction());
        w.key("batches").begin_array();
        for (const OverlapBatch& b : res.batches) {
            w.begin_object();
            w.kv("id", b.id);
            w.kv("update_cycles", static_cast<std::uint64_t>(b.update_cycles));
            w.kv("hidden_cycles", static_cast<std::uint64_t>(b.hidden_cycles));
            w.kv("computed", b.computed);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("telemetry").raw(telemetry::to_json(0));
    w.end_object();

    const std::string doc = w.take();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    Timer wall;
    std::string json_path;
    const char* set_name = "rmat";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        } else if (std::strncmp(argv[i], "--set=", 6) == 0) {
            set_name = argv[i] + 6;
        }
    }
    const OverlapSet* set = nullptr;
    for (const OverlapSet& s : sets()) {
        if (s.name == std::string(set_name)) {
            set = &s;
        }
    }
    if (set == nullptr) {
        std::fprintf(stderr,
                     "usage: bench_pipeline_overlap [--set=<name>] "
                     "[--json=<path>]\nsets:");
        for (const OverlapSet& s : sets()) {
            std::fprintf(stderr, " %s", s.name);
        }
        std::fprintf(stderr, "\n");
        return 2;
    }

    bench::banner("pipeline overlap",
                  "DESIGN.md §11 (pipelined update/compute; not a paper "
                  "figure)",
                  set->name);
    TextTable t({"source", "batch", "depth", "upd Mcyc", "cmp Mcyc",
                 "hidden Mcyc", "hidden frac"});
    std::vector<OverlapResult> results;
    results.reserve(set->runs.size());
    for (const Run& r : set->runs) {
        results.push_back(run_one(r));
        const OverlapResult& res = results.back();
        t.row()
            .cell(r.source)
            .cell(static_cast<std::uint64_t>(r.batch_size))
            .cell(static_cast<std::uint64_t>(r.pipeline_depth))
            .cell(static_cast<double>(res.update_cycles) / 1e6)
            .cell(static_cast<double>(res.compute_cycles) / 1e6)
            .cell(static_cast<double>(res.hidden_cycles) / 1e6)
            .cell(res.hidden_fraction());
    }
    t.print();

    if (!json_path.empty()) {
        write_json(json_path, set->name, set->runs, results, wall);
    }
    return 0;
}
