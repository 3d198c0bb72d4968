/**
 * @file
 * Integration tests: the full input-aware pipeline (engine + incremental
 * analytics + OCA aggregation) on registry datasets, cross-policy state
 * equivalence, and end-to-end determinism.
 */
#include <gtest/gtest.h>

#include "analytics/incremental/pagerank.h"
#include "analytics/incremental/sssp.h"
#include "analytics/sssp.h"
#include "core/engine.h"
#include "sim/sim_engine.h"
#include "gen/datasets.h"
#include "graph/dirty_set_view.h"

namespace igs {
namespace {

using core::EngineConfig;
using sim::SimEngine;
using core::UpdatePolicy;

/** Drive `batches` batches of `batch_size` from a registry dataset
 *  through an engine with incremental PR (settled on the empty graph,
 *  then one metered delta round per hand-off), returning total compute
 *  work and the final ranks. */
struct PipelineResult {
    analytics::ComputeStats compute;
    std::vector<double> ranks;
    Cycles update_cycles = 0;
    int compute_rounds_launched = 0;
};

PipelineResult
run_pipeline(const std::string& dataset, UpdatePolicy policy, bool oca,
             std::size_t batch_size, std::size_t batches,
             double oca_threshold = 0.25)
{
    const auto& ds = gen::find_dataset(dataset);
    EngineConfig cfg;
    cfg.policy = policy;
    cfg.oca.enabled = oca;
    cfg.oca.threshold = oca_threshold;
    SimEngine engine(cfg, sim::MachineParams{}, sim::SwCostParams{},
                     sim::HauCostParams{}, ds.model.num_vertices);
    analytics::incremental::PageRank pr;
    pr.full_rerun(engine.graph());
    auto genr = ds.make_generator();

    PipelineResult out;
    const auto round = [&](const core::PendingWork& work) {
        analytics::ComputeMeter meter;
        meter.round();
        pr.delta_propagate(graph::DirtySetView(engine.graph(), work.affected),
                           &meter);
        out.compute += meter.stats();
        ++out.compute_rounds_launched;
    };
    for (std::uint64_t k = 1; k <= batches; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        batch.set_edges(genr.take(batch_size));
        const auto report = engine.ingest(batch);
        out.update_cycles += report.update.cycles;
        if (engine.compute_due()) {
            round(engine.take_pending_work());
        }
    }
    // Flush any trailing deferred round (stream end).
    if (!engine.compute_due()) {
        const auto work = engine.take_pending_work();
        if (!work.affected.empty()) {
            round(work);
        }
    }
    out.ranks = pr.ranks();
    return out;
}

TEST(Integration, FullPipelineIsDeterministic)
{
    const auto a =
        run_pipeline("fb", UpdatePolicy::kAbrUscHau, true, 2000, 5);
    const auto b =
        run_pipeline("fb", UpdatePolicy::kAbrUscHau, true, 2000, 5);
    EXPECT_EQ(a.update_cycles, b.update_cycles);
    EXPECT_EQ(a.compute.traversals, b.compute.traversals);
    EXPECT_EQ(a.ranks, b.ranks);
}

TEST(Integration, PoliciesAgreeOnFinalGraphAndRanks)
{
    const auto base =
        run_pipeline("fb", UpdatePolicy::kBaseline, false, 2000, 5);
    const auto full =
        run_pipeline("fb", UpdatePolicy::kAbrUscHau, false, 2000, 5);
    // Same computation model on the same final graphs: identical ranks.
    ASSERT_EQ(base.ranks.size(), full.ranks.size());
    for (std::size_t v = 0; v < base.ranks.size(); ++v) {
        ASSERT_NEAR(base.ranks[v], full.ranks[v], 1e-9);
    }
}

TEST(Integration, OcaAggregationReducesRoundsNotAccuracy)
{
    // fb at 2K-edge batches exhibits high inter-batch overlap, so OCA
    // halves the number of compute rounds.
    const auto without =
        run_pipeline("fb", UpdatePolicy::kBaseline, false, 2000, 8);
    const auto with =
        run_pipeline("fb", UpdatePolicy::kBaseline, true, 2000, 8, 0.1);
    EXPECT_LT(with.compute_rounds_launched, without.compute_rounds_launched);
    EXPECT_LT(with.compute.cycles(), without.compute.cycles());
    // Aggregation may only coarsen granularity, not corrupt results: the
    // final ranks converge to the same fixed point.
    ASSERT_EQ(with.ranks.size(), without.ranks.size());
    double max_err = 0.0;
    for (std::size_t v = 0; v < with.ranks.size(); ++v) {
        max_err = std::max(max_err,
                           std::abs(with.ranks[v] - without.ranks[v]));
    }
    EXPECT_LT(max_err, 5e-3);
}

TEST(Integration, AdaptationBeatsAlwaysReorderOnAdverseInput)
{
    // lj is reordering-adverse: always-RO must cost more update cycles
    // than ABR (which falls back after the first active batch).
    const auto ro =
        run_pipeline("lj", UpdatePolicy::kAlwaysReorder, false, 5000, 6);
    const auto abr = run_pipeline("lj", UpdatePolicy::kAbr, false, 5000, 6);
    EXPECT_LT(abr.update_cycles, ro.update_cycles);
}

TEST(Integration, AbrKeepsReorderingOnFriendlyInput)
{
    // wiki at 100K is reordering-friendly; ABR+USC should land close to
    // (not catastrophically above) always-RO+USC.
    const auto always = run_pipeline("wiki", UpdatePolicy::kAlwaysReorderUsc,
                                     false, 20000, 4);
    const auto abr =
        run_pipeline("wiki", UpdatePolicy::kAbrUsc, false, 20000, 4);
    EXPECT_LT(static_cast<double>(abr.update_cycles),
              1.25 * static_cast<double>(always.update_cycles));
}

TEST(Integration, FullSystemBeatsSoftwareOnlyOnAdverseInput)
{
    // The paper's headline claim (Fig 1 / §6.2.2): dynamic SW/HW beats
    // the SW-only input-oblivious path on adverse inputs.
    const auto sw_only = run_pipeline("uk", UpdatePolicy::kAlwaysReorderUsc,
                                      false, 10000, 5);
    const auto full =
        run_pipeline("uk", UpdatePolicy::kAbrUscHau, false, 10000, 5);
    EXPECT_LT(full.update_cycles, sw_only.update_cycles);
    // And it beats the plain baseline too (HAU's contribution).
    const auto baseline =
        run_pipeline("uk", UpdatePolicy::kBaseline, false, 10000, 5);
    EXPECT_LT(full.update_cycles, baseline.update_cycles);
}

TEST(Integration, IncrementalSsspSurvivesFullPipeline)
{
    const auto& ds = gen::find_dataset("amazon");
    EngineConfig cfg;
    cfg.policy = UpdatePolicy::kAbrUscHau;
    SimEngine engine(cfg, sim::MachineParams{}, sim::SwCostParams{},
                     sim::HauCostParams{}, ds.model.num_vertices);
    gen::StreamModel m = ds.model;
    m.delete_fraction = 0.1;
    m.weighted = true;
    gen::EdgeStreamGenerator genr(m);
    analytics::incremental::Sssp sssp(0);
    sssp.full_rerun(engine.graph());

    for (std::uint64_t k = 1; k <= 4; ++k) {
        stream::EdgeBatch batch;
        batch.id = k;
        batch.set_edges(genr.take(3000));
        engine.ingest(batch);
        const auto work = engine.take_pending_work();
        sssp.delta_update(graph::DirtySetView(engine.graph(), work.affected),
                          work.inserted, work.deleted);
        ASSERT_EQ(sssp.distances(), analytics::static_sssp(engine.graph(), 0))
            << "batch " << k;
    }
}

} // namespace
} // namespace igs
