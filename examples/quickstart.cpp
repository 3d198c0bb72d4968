/**
 * @file
 * Quickstart: five minutes with the input-aware streaming engine.
 *
 * Streams a synthetic R-MAT graph into a @ref igs::core::RealTimeEngine
 * (real threads, real locks — the production frontend), lets ABR pick the
 * update path per batch, and keeps PageRank fresh incrementally: the
 * attached analytics bundle runs one compute round per published epoch.
 *
 *   $ ./quickstart
 */
#include <cstdio>

#include "analytics/incremental/analytics.h"
#include "core/engine.h"
#include "gen/rmat.h"

int
main()
{
    using namespace igs;

    // 1. Configure the engine: the full input-aware policy (ABR decides
    //    per batch between reordered+USC software updates and the
    //    baseline path; on real hardware HAU is unavailable and adverse
    //    batches simply stay on the baseline path).
    core::EngineConfig config;
    config.policy = core::UpdatePolicy::kAbrUscHau;
    config.oca.enabled = true;

    gen::RmatGenerator rmat(gen::RmatParams{.scale = 14, .seed = 42});
    core::RealTimeEngine engine(config, rmat.num_vertices());
    analytics::incremental::IncrementalConfig pagerank_only;
    pagerank_only.run_sssp = false;
    pagerank_only.run_bfs = false;
    analytics::incremental::IncrementalAnalytics bundle(pagerank_only);
    analytics::incremental::attach(engine, bundle);

    // 2. Stream batches; the engine runs a compute round after each (or
    //    after two, when OCA aggregates overlapping batches).
    constexpr std::size_t kBatchSize = 10000;
    constexpr std::uint64_t kBatches = 12;
    for (std::uint64_t id = 1; id <= kBatches; ++id) {
        stream::EdgeBatch batch;
        batch.id = id;
        batch.set_edges(rmat.take(kBatchSize));

        const core::BatchReport report = engine.ingest(batch);
        std::printf("batch %2llu: %-9s %s%s  (%.2f ms update",
                    static_cast<unsigned long long>(id),
                    report.reordered ? "reordered" : "baseline",
                    report.used_usc ? "+USC" : "",
                    report.abr_active ? "  [ABR-active]" : "",
                    report.wall_seconds * 1e3);
        if (report.cad.has_value()) {
            std::printf(", CAD=%.0f", report.cad->cad());
        }
        std::printf(")\n");

        if (!engine.compute_due()) {
            std::printf("          compute deferred (OCA overlap %.2f)\n",
                        report.overlap);
        }
    }

    // 3. Run the round for any deferred tail, then read the results.
    engine.flush_pipeline();
    const auto& ranks = bundle.pagerank().ranks();
    VertexId best = 0;
    for (VertexId v = 1; v < ranks.size(); ++v) {
        if (ranks[v] > ranks[best]) {
            best = v;
        }
    }
    std::printf("\ngraph: %zu vertices, %llu edges\n",
                engine.graph().num_vertices(),
                static_cast<unsigned long long>(engine.graph().num_edges()));
    std::printf("top-ranked vertex: %u (rank %.6f)\n", best, ranks[best]);
    return 0;
}
