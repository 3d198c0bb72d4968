#include "workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gen/datasets.h"
#include "gen/edge_stream.h"

namespace perfbench {
namespace {

using igs::core::EngineConfig;
using igs::core::GraphBackend;
using igs::gen::EdgeStreamGenerator;

/** What differs between workloads before generation. */
struct Shape {
    std::uint64_t bulk_edges = 0;
    std::size_t batch_size = 0;
    /** Streamed batches per requested second (calibrated, 4-vCPU host). */
    double batches_per_second = 0;
};

/** Streamed batches per episode: each episode's p95 then rests on 10
 *  samples beyond it. */
constexpr std::size_t kEpisodeBatches = 210;
/** Fewest episodes a timed run medians over. */
constexpr int kMinEpisodes = 3;
/** Tiny scale: enough batches and episodes for every layer to run. */
constexpr std::size_t kTinyBatches = 40;
constexpr int kTinyEpisodes = 2;
/** Bulk-load batches are this many stream batches long. */
constexpr std::size_t kBulkBatchFactor = 10;

void
generate(Workload& w, EdgeStreamGenerator& gen, const Shape& shape,
         double seconds, Scale scale)
{
    const bool tiny = scale == Scale::kTiny;
    const std::uint64_t bulk_edges =
        tiny ? shape.bulk_edges / 20 : shape.bulk_edges;
    w.episodes = tiny ? kTinyEpisodes
                      : std::max(kMinEpisodes,
                                 static_cast<int>(std::lround(
                                     seconds * shape.batches_per_second /
                                     static_cast<double>(kEpisodeBatches))));
    const std::size_t stream_batches = tiny ? kTinyBatches : kEpisodeBatches;
    w.batch_size = shape.batch_size;

    std::uint64_t id = 1;
    const std::size_t bulk_batch = shape.batch_size * kBulkBatchFactor;
    for (std::uint64_t left = bulk_edges; left > 0;) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(left, bulk_batch));
        w.bulk.emplace_back(id++, gen.take(n));
        left -= n;
    }
    // The first ABR-active streamed batch measures OCA overlap against the
    // last bulk batch, which is kBulkBatchFactor times larger, and latches
    // aggregation for one ABR period.  Two periods of warm-up put the
    // measured batches past that bulk-load transient: within them an
    // ABR-active batch follows a stream-sized one.
    const std::size_t warmup_batches = 2 * w.engine.abr.n;
    w.warmup.reserve(warmup_batches);
    for (std::size_t i = 0; i < warmup_batches; ++i) {
        w.warmup.emplace_back(id++, gen.take(shape.batch_size));
    }
    w.stream.reserve(stream_batches);
    for (std::size_t i = 0; i < stream_batches; ++i) {
        w.stream.emplace_back(id++, gen.take(shape.batch_size));
    }
}

igs::analytics::incremental::IncrementalConfig
only(Analytic a, const EngineConfig& engine)
{
    igs::analytics::incremental::IncrementalConfig c;
    c.policy = engine.incremental;
    c.run_pagerank = false;
    c.run_sssp = a == Analytic::kSssp;
    c.run_bfs = a == Analytic::kBfs;
    c.sssp_source = 0;
    c.bfs_source = 0;
    return c;
}

} // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names{"wiki-reach", "lj-adverse",
                                                "fraud-churn"};
    return names;
}

Workload
make_workload(const std::string& name, std::uint64_t seed, double seconds,
              Scale scale)
{
    Workload w;
    w.name = name;
    if (name == "wiki-reach") {
        // Reordering-friendly hubs, depth-2 pipeline, incremental BFS.
        const igs::gen::DatasetSpec& ds = igs::gen::find_dataset("wiki");
        w.engine.pipeline_depth = 2;
        w.analytic = Analytic::kBfs;
        w.num_vertices = ds.model.num_vertices;
        EdgeStreamGenerator gen = ds.make_generator(seed);
        generate(w, gen, {2'000'000, 10'000, 70.0}, seconds, scale);
    } else if (name == "lj-adverse") {
        // Reordering-adverse, same batch size, serial incremental SSSP.
        igs::gen::DatasetSpec ds = igs::gen::find_dataset("lj");
        ds.model.weighted = true;
        w.analytic = Analytic::kSssp;
        w.num_vertices = ds.model.num_vertices;
        EdgeStreamGenerator gen = ds.make_generator(seed);
        generate(w, gen, {2'000'000, 10'000, 55.0}, seconds, scale);
    } else if (name == "fraud-churn") {
        // examples/fraud_detection.cpp's transaction model with churn:
        // deletions and weight-accumulating duplicates, small batches,
        // OCA off (latency-critical), hybrid store.
        igs::gen::StreamModel m;
        m.num_vertices = 20000;
        m.num_hubs = 64;
        m.hub_mass_dst = 0.15;
        m.community_mass = 0.7;
        m.community_size = 3000;
        m.weighted = true;
        m.delete_fraction = 0.2;
        m.seed = 2026 + seed;
        w.engine.graph_backend = GraphBackend::kHybrid;
        w.engine.oca.enabled = false;
        w.analytic = Analytic::kSssp;
        w.num_vertices = m.num_vertices;
        EdgeStreamGenerator gen(m);
        generate(w, gen, {500'000, 1'000, 110.0}, seconds, scale);
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    w.analytics = only(w.analytic, w.engine);
    return w;
}

} // namespace perfbench
