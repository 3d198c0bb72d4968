/**
 * @file
 * Host path sweep: the wall cost of the update paths ABR chooses between,
 * measured on this host rather than charged by the Table-1 model.
 *
 * Grid: the registry's wiki stream (reordering-friendly) and lj stream
 * (reordering-adverse) x batches of 1K, 10K and 100K edges x pools of 1, 2
 * and 4 threads (the caller included).  Per cell it times
 *  - the radix batch reorder (stream::Reorderer), in ms per batch;
 *  - the baseline, RO and RO+USC kernels (stream/updaters.h under
 *    RealContext), in ns per edge, each on its own AdjacencyList warmed by
 *    the same 2M-edge bulk load and fed the same measured batches in the
 *    same order, so the three kernels write the same graph (the paths take
 *    each batch in turn, so drift in the host's load falls on all three);
 * and reports the share of one-edge runs in the reordered batch (the runs
 * the USC kernel applies without its table).  Every figure is the median
 * over the cell's measured batches.
 *
 * The kernels run without the engine: no ABR decision, no publication and
 * no compute round.  This is the first part of ROADMAP item 1's host
 * calibration sweep; plan_radix's digit rule and the radix fork/join cutoff
 * were picked from it (EXPERIMENTS.md).
 *
 * IGS_BENCH_SCALE scales the bulk load and the measured batch counts.
 * Usage: bench_micro_reorder [--json=<path>]
 * (committed run: BENCH_host_paths.json).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_support.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "graph/adjacency_list.h"
#include "stream/batch.h"
#include "stream/reorder.h"
#include "stream/update_context.h"
#include "stream/updaters.h"

namespace {

using namespace igs;

constexpr std::size_t kBatchSizes[] = {1000, 10000, 100000};
constexpr std::size_t kPools[] = {1, 2, 4};
constexpr std::uint64_t kBulkEdges = 2'000'000;
constexpr std::size_t kBulkBatch = 100'000;

enum class Path { kBaseline, kRo, kUsc };
constexpr Path kPaths[] = {Path::kBaseline, Path::kRo, Path::kUsc};
constexpr std::size_t kNumPaths = std::size(kPaths);

/** Measured batches per batch size (at least 2 at any scale). */
std::size_t
batches_at(std::size_t batch_size)
{
    const double base = batch_size <= 1000 ? 40 : batch_size <= 10000 ? 12 : 4;
    return std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(base * bench::bench_scale())));
}

/** One registry stream: the bulk load, then the measured batches of each
 *  batch size, drawn in that order from one generator. */
struct Stream {
    const char* name;
    std::size_t num_vertices = 0;
    std::vector<stream::EdgeBatch> bulk;
    std::vector<stream::EdgeBatch> measured[std::size(kBatchSizes)];
};

Stream
make_stream(const char* name)
{
    const gen::DatasetSpec& ds = gen::find_dataset(name);
    gen::EdgeStreamGenerator gen = ds.make_generator();
    Stream s{name, ds.model.num_vertices, {}, {}};
    std::uint64_t id = 1;
    const auto bulk_edges = static_cast<std::uint64_t>(
        static_cast<double>(kBulkEdges) * bench::bench_scale());
    for (std::uint64_t left = bulk_edges; left > 0;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, kBulkBatch));
        s.bulk.emplace_back(id++, gen.take(n));
        left -= n;
    }
    for (std::size_t k = 0; k < std::size(kBatchSizes); ++k) {
        for (std::size_t i = 0; i < batches_at(kBatchSizes[k]); ++i) {
            s.measured[k].emplace_back(id++, gen.take(kBatchSizes[k]));
        }
    }
    return s;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Medians of one stream x pool x batch-size cell. */
struct Cell {
    const char* stream;
    std::size_t pool_threads;
    std::size_t batch_size;
    std::size_t batches;
    double reorder_ms;
    double one_edge_run_share;
    /** Kernel wall time per edge, by Path. */
    double ns_per_edge[kNumPaths];

    /** Path wall time per edge, the reorder included for RO and USC. */
    double
    path_ns_per_edge(Path p) const
    {
        const double kernel = ns_per_edge[static_cast<std::size_t>(p)];
        return p == Path::kBaseline
                   ? kernel
                   : kernel + reorder_ms * 1e6 /
                                  static_cast<double>(batch_size);
    }
};

/** Apply `b` to `g` by `path`; returns the kernel's wall seconds. */
double
apply_path(Path path, graph::AdjacencyList& g, const stream::EdgeBatch& b,
           const stream::ReorderedBatch& rb, stream::RealContext& ctx)
{
    Timer t;
    switch (path) {
    case Path::kBaseline:
        stream::apply_batch_baseline(g, b, ctx);
        break;
    case Path::kRo:
        stream::apply_batch_reordered(g, b, rb, ctx);
        break;
    case Path::kUsc:
        stream::apply_batch_usc(g, b, rb, ctx);
        break;
    }
    return t.seconds();
}

double
one_edge_run_share(const stream::ReorderedBatch& rb)
{
    std::size_t ones = 0;
    for (const auto* d : {&rb.by_src, &rb.by_dst}) {
        for (const stream::VertexRun& r : d->runs) {
            ones += r.size() == 1;
        }
    }
    const std::size_t runs = rb.by_src.runs.size() + rb.by_dst.runs.size();
    return runs == 0 ? 0.0
                     : static_cast<double>(ones) / static_cast<double>(runs);
}

/**
 * Every batch-size cell of one stream on one pool.  Each path writes its
 * own store, bulk-loaded alike; the paths take each measured batch in
 * turn, the first one rotating from batch to batch, so drift in the
 * host's load falls on every path alike.
 */
void
sweep_pool(const Stream& s, std::size_t threads, std::vector<Cell>& cells)
{
    ThreadPool pool(threads);
    stream::UscScratch usc;
    stream::RealContext ctx(pool, &usc);
    stream::Reorderer reorderer;

    std::vector<graph::AdjacencyList> stores;
    stores.reserve(kNumPaths);
    for (std::size_t p = 0; p < kNumPaths; ++p) {
        stores.emplace_back(s.num_vertices);
        for (const stream::EdgeBatch& b : s.bulk) {
            stream::apply_batch_usc(stores.back(), b,
                                    reorderer.reorder(b.edges(), pool), ctx);
        }
    }

    for (std::size_t k = 0; k < std::size(kBatchSizes); ++k) {
        std::vector<double> ms;
        std::vector<double> ones;
        std::vector<double> ns[kNumPaths];
        // The first batch of a new size may grow the reorder arena.
        reorderer.reorder(s.measured[k].front().edges(), pool);
        for (std::size_t i = 0; i < s.measured[k].size(); ++i) {
            const stream::EdgeBatch& b = s.measured[k][i];
            Timer t;
            const stream::ReorderedBatch& rb =
                reorderer.reorder(b.edges(), pool);
            ms.push_back(t.milliseconds());
            ones.push_back(one_edge_run_share(rb));
            for (std::size_t j = 0; j < kNumPaths; ++j) {
                const std::size_t p = (i + j) % kNumPaths;
                ns[p].push_back(apply_path(kPaths[p], stores[p], b, rb, ctx) *
                                1e9 / static_cast<double>(b.size()));
            }
        }
        Cell c{s.name, threads, kBatchSizes[k], s.measured[k].size(),
               median(ms), median(ones), {}};
        for (std::size_t p = 0; p < kNumPaths; ++p) {
            c.ns_per_edge[p] = median(ns[p]);
        }
        cells.push_back(c);
    }
}

void
print_stream(const char* name, const std::vector<Cell>& cells)
{
    std::printf("-- %s --\n", name);
    TextTable t({"pool", "batch", "reorder ms", "1-edge runs", "base ns/e",
                 "RO ns/e", "USC ns/e", "RO+reorder", "USC+reorder"});
    for (const Cell& c : cells) {
        if (std::strcmp(c.stream, name) != 0) {
            continue;
        }
        t.row()
            .cell(static_cast<std::uint64_t>(c.pool_threads))
            .cell(static_cast<std::uint64_t>(c.batch_size))
            .cell(c.reorder_ms, 3)
            .cell(c.one_edge_run_share, 3)
            .cell(c.ns_per_edge[0], 1)
            .cell(c.ns_per_edge[1], 1)
            .cell(c.ns_per_edge[2], 1)
            .cell(c.path_ns_per_edge(Path::kRo), 1)
            .cell(c.path_ns_per_edge(Path::kUsc), 1);
    }
    t.print();
    std::printf("\n");
}

/** The sweep as a schema-versioned document (the shared top-level shape
 *  of tools/golden_check.py; one `streams` entry per cell). */
void
write_json(const std::string& path, const std::vector<Cell>& cells,
           const Timer& wall)
{
    telemetry::JsonWriter w(2);
    w.begin_object();
    w.kv("schema_version", bench::JsonSink::kSchemaVersion);
    w.kv("experiment", "host_paths");
    w.key("host").begin_object();
    w.kv("bench_scale", bench::bench_scale());
    if (const char* e = std::getenv("IGS_BENCH_SCALE")) {
        w.kv("bench_scale_env", e);
    } else {
        w.key("bench_scale_env").null();
    }
    w.kv("wall_seconds", wall.seconds());
    w.end_object();
    w.key("streams").begin_array();
    for (const Cell& c : cells) {
        w.begin_object();
        w.kv("dataset", c.stream);
        w.kv("pool_threads", static_cast<std::uint64_t>(c.pool_threads));
        w.kv("batch_size", static_cast<std::uint64_t>(c.batch_size));
        w.kv("num_batches", static_cast<std::uint64_t>(c.batches));
        w.kv("reorder_ms", c.reorder_ms);
        w.kv("one_edge_run_share", c.one_edge_run_share);
        w.kv("baseline_ns_per_edge", c.ns_per_edge[0]);
        w.kv("ro_ns_per_edge", c.ns_per_edge[1]);
        w.kv("usc_ns_per_edge", c.ns_per_edge[2]);
        w.kv("ro_path_ns_per_edge", c.path_ns_per_edge(Path::kRo));
        w.kv("usc_path_ns_per_edge", c.path_ns_per_edge(Path::kUsc));
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
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        }
    }
    bench::banner("host path sweep: reorder + update kernels",
                  "ROADMAP item 1 (host calibration; not a paper figure)",
                  "host wall-clock medians; 2M-edge warm store per kernel");

    std::vector<Cell> cells;
    for (const char* name : {"wiki", "lj"}) {
        const Stream s = make_stream(name);
        for (const std::size_t threads : kPools) {
            sweep_pool(s, threads, cells);
        }
        print_stream(name, cells);
    }
    if (!json_path.empty()) {
        write_json(json_path, cells, wall);
    }
    return 0;
}
