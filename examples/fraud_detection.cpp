/**
 * @file
 * Domain example: streaming financial-fraud monitoring.
 *
 * A transaction stream (accounts as vertices, weighted payment edges)
 * is ingested in *small* batches — the latency-critical scenario of
 * paper §5, where OCA is deliberately disabled so every batch gets an
 * immediate analysis round.  Incremental SSSP from a flagged mule
 * account maintains "proximity to known fraud"; accounts whose weighted
 * distance drops under a threshold are alerted in the same batch they
 * become reachable.
 *
 *   $ ./fraud_detection [batches]
 */
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analytics/incremental/sssp.h"
#include "core/engine.h"
#include "gen/edge_stream.h"

int
main(int argc, char** argv)
{
    using namespace igs;

    constexpr VertexId kFlaggedAccount = 0;
    constexpr Weight kAlertDistance = 2.5f;
    const std::uint64_t batches =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 40;

    // Transaction streams are bursty and community-local: model with a
    // tight active community and weighted edges (transfer sizes).
    gen::StreamModel model;
    model.num_vertices = 20000;
    model.num_hubs = 64;       // payment processors / exchanges
    model.hub_mass_dst = 0.15;
    model.community_mass = 0.7;
    model.community_size = 3000;
    model.weighted = true;
    model.seed = 2026;
    gen::EdgeStreamGenerator transactions(model);

    // Latency-sensitive configuration: small batches, OCA off (§5:
    // "extremely latency-sensitive applications ... trading off
    // granularity for a higher computation performance is not a good
    // choice"), ABR still adapts the update path.
    core::EngineConfig config;
    config.policy = core::UpdatePolicy::kAbrUsc;
    config.oca.enabled = false;
    core::RealTimeEngine engine(config, model.num_vertices);
    analytics::incremental::Sssp proximity(kFlaggedAccount);
    proximity.full_rerun(engine.graph()); // settle on the empty graph

    constexpr std::size_t kBatchSize = 500; // ~sub-second reaction
    std::size_t alerts = 0;
    std::vector<bool> alerted(model.num_vertices, false);

    for (std::uint64_t id = 1; id <= batches; ++id) {
        stream::EdgeBatch batch;
        batch.id = id;
        batch.set_edges(transactions.take(kBatchSize));
        engine.ingest(batch);

        const core::PendingWork work = engine.take_pending_work();
        proximity.delta_update(engine.graph(), work.inserted, work.deleted);

        // Alert newly-close accounts.  Every account, not just the
        // batch's endpoints: an insertion also lowers distances
        // downstream of them.
        const std::vector<Weight>& dist = proximity.distances();
        for (VertexId v = 0; v < dist.size(); ++v) {
            if (!alerted[v] && v != kFlaggedAccount &&
                dist[v] <= kAlertDistance) {
                alerted[v] = true;
                ++alerts;
                if (alerts <= 10) {
                    std::printf("batch %3llu  ALERT account %6u is %.2f "
                                "hops-worth of money from flagged "
                                "account\n",
                                static_cast<unsigned long long>(id), v,
                                dist[v]);
                }
            }
        }
    }

    std::size_t reachable = 0;
    std::size_t missed = 0;
    const std::vector<Weight>& dist = proximity.distances();
    for (VertexId v = 0; v < dist.size(); ++v) {
        if (dist[v] != kInfiniteDistance) {
            ++reachable;
        }
        if (v != kFlaggedAccount && dist[v] <= kAlertDistance &&
            !alerted[v]) {
            ++missed;
        }
    }
    std::printf("\nprocessed %llu batches x %zu transactions\n",
                static_cast<unsigned long long>(batches), kBatchSize);
    std::printf("accounts reachable from flagged account: %zu; alerts "
                "raised: %zu\n",
                reachable, alerts);
    if (missed != 0) {
        std::fprintf(stderr,
                     "%zu accounts within %.2f of the flagged account were "
                     "never alerted\n",
                     missed, kAlertDistance);
        return 1;
    }
    return 0;
}
