/**
 * @file
 * §6.2.3 "Impact of other data structures" reproduction: Adjacency-list
 * (AS) vs Degree-Aware Hashing (DAH) on wiki-100K.
 *
 * Paper: DAH beats AS's baseline on reordering-friendly cases (1.95x for
 * wiki-100K), but AS+RO is on par (1.8x) and AS+RO+USC overtakes it
 * (2.1x) — so a system can keep the single AS structure and adapt, which
 * is ABR's point.  (The paper's ratios are consistent with overall
 * update+compute performance — Fig 13 reports far larger update-only
 * gains for the same workload — so we report both.)
 *
 * A third arm runs the same replay on the GraphTango-style three-tier
 * hybrid store (DESIGN.md §12); bench_hybrid_store sweeps it in depth.
 */
#include "bench_support.h"

#include "graph/degree_aware_hash.h"
#include "graph/hybrid_store.h"
#include "sim/sim_context.h"
#include "stream/updaters.h"

int
main(int argc, char** argv)
{
    igs::bench::JsonSink json_sink("dah_comparison", argc, argv);
    using namespace igs;
    using bench::Algo;
    using core::UpdatePolicy;

    bench::banner("Data structures: AS vs DAH (wiki @100K)",
                  "§6.2.3 (DAH 1.95x over AS; AS+RO 1.8x; AS+RO+USC 2.1x)",
                  "normalized to the AS baseline; 'overall' adds the "
                  "incremental-PR compute phase (identical across "
                  "structures)");

    const auto& ds = gen::find_dataset("wiki");
    const std::size_t b = 100000;
    const std::size_t nb = bench::batches_for(b);

    // AS arms via the standard runner (with compute for overall).
    const auto as_base = bench::run_stream(ds, b, nb,
                                           UpdatePolicy::kBaseline,
                                           Algo::kPageRank);
    const auto as_ro = bench::run_stream(ds, b, nb,
                                         UpdatePolicy::kAlwaysReorder,
                                         Algo::kPageRank);
    const auto as_usc = bench::run_stream(ds, b, nb,
                                          UpdatePolicy::kAlwaysReorderUsc,
                                          Algo::kPageRank);

    // DAH / hybrid baselines: the baseline kernel on the alternative
    // structures under the same timing context.  Their ApplyResults
    // report hash (or tiered) probes, so duplicate checks on high-degree
    // vertices are O(1) / O(log d); the compute phase is
    // structure-independent (same graph content), so AS's compute cycles
    // apply.
    const auto replay_structure = [&](auto& g) {
        sim::ExecSim exec(sim::MachineParams{}.num_cores,
                          ds.model.num_vertices * 2);
        sim::SwCostParams sw;
        auto genr = ds.make_generator();
        Cycles update = 0;
        for (std::uint64_t k = 1; k <= nb; ++k) {
            stream::EdgeBatch batch;
            batch.id = k;
            batch.set_edges(genr.take(b));
            sim::SimContext ctx(exec, sw);
            stream::apply_batch_baseline(g, batch, ctx);
            update += ctx.stats().cycles;
        }
        return update;
    };
    Cycles dah_update = 0;
    {
        graph::DegreeAwareHash g(ds.model.num_vertices);
        dah_update = replay_structure(g);
    }
    Cycles hybrid_update = 0;
    {
        graph::HybridStore g(ds.model.num_vertices);
        hybrid_update = replay_structure(g);
        g.publish_tier_telemetry();
    }

    const double base_update = static_cast<double>(as_base.update_cycles);
    const double base_overall =
        static_cast<double>(as_base.overall_cycles());
    const double compute =
        static_cast<double>(as_base.compute_cycles);

    TextTable t({"configuration", "update x", "overall x", "paper"});
    t.row()
        .cell(std::string("AS baseline"))
        .cell(1.0)
        .cell(1.0)
        .cell(std::string("1.00x"));
    t.row()
        .cell(std::string("DAH baseline"))
        .cell(base_update / static_cast<double>(dah_update))
        .cell(base_overall / (static_cast<double>(dah_update) + compute))
        .cell(std::string("1.95x"));
    t.row()
        .cell(std::string("Hybrid baseline"))
        .cell(base_update / static_cast<double>(hybrid_update))
        .cell(base_overall / (static_cast<double>(hybrid_update) + compute))
        .cell(std::string("n/a (DESIGN.md 12)"));
    t.row()
        .cell(std::string("AS + batch reordering"))
        .cell(bench::speedup(as_base, as_ro))
        .cell(base_overall /
              (static_cast<double>(as_ro.update_cycles) + compute))
        .cell(std::string("1.8x"));
    t.row()
        .cell(std::string("AS + reordering + USC"))
        .cell(bench::speedup(as_base, as_usc))
        .cell(base_overall /
              (static_cast<double>(as_usc.update_cycles) + compute))
        .cell(std::string("2.1x (beats DAH)"));
    t.print();
    std::printf(
        "\nNote: at this reproduction's scale the AS baseline is dominated "
        "by hub scan chains,\nso an O(1)-duplicate-check structure wins by "
        "more than the paper's 1.95x; the paper's\nsystemic point stands — "
        "adaptive reordering+USC reaches DAH-class update performance\n"
        "while keeping the single AS structure (and, unlike DAH, it adapts "
        "away on adverse\ninputs instead of paying hashing overheads "
        "everywhere).\n");
    return 0;
}
