/**
 * @file
 * Golden-run replay driver (DESIGN.md §9).  Replays small, fixed-seed
 * dataset streams through the SimEngine and exports the full per-batch
 * decision/cycle series with `--json=<path>`.  Batch counts are pinned —
 * IGS_BENCH_SCALE deliberately has no effect here — so the output is a
 * deterministic function of the code: tools/golden_check.py diffs it
 * against the blessed snapshots in tests/golden/.
 *
 * Usage: bench_golden_replay --set=<name> --json=<path>
 * Sets: abr_usc | hau | oca (see kSets below).
 */
#include "bench_support.h"

#include <cstring>

namespace {

using namespace igs;
using bench::Algo;
using core::UpdatePolicy;

struct Replay {
    const char* dataset;
    std::size_t batch_size;
    std::size_t num_batches;
    UpdatePolicy policy;
    Algo algo;
    bool oca;
};

struct GoldenSet {
    const char* name;
    std::vector<Replay> replays;
};

/** Small fixed replays covering every decision path the paper exercises:
 *  ABR latching on friendly (wiki) and adverse (lj) inputs, USC, the HAU
 *  fallback, and OCA aggregation.  Keep each set under ~1s. */
const std::vector<GoldenSet>&
sets()
{
    static const std::vector<GoldenSet> kSets = {
        {"abr_usc",
         {
             {"wiki", 1000, 6, UpdatePolicy::kBaseline, Algo::kPageRank,
              false},
             {"wiki", 1000, 6, UpdatePolicy::kAbrUsc, Algo::kPageRank, false},
             {"lj", 1000, 6, UpdatePolicy::kAbrUsc, Algo::kPageRank, false},
             {"lj", 1000, 6, UpdatePolicy::kAlwaysReorderUsc, Algo::kSssp,
              false},
         }},
        {"hau",
         {
             {"wiki", 1000, 6, UpdatePolicy::kAbrUscHau, Algo::kPageRank,
              false},
             {"lj", 1000, 6, UpdatePolicy::kAbrUscHau, Algo::kPageRank,
              false},
             {"lj", 1000, 4, UpdatePolicy::kAlwaysHau, Algo::kNone, false},
         }},
        {"oca",
         {
             {"fb", 1000, 8, UpdatePolicy::kAbrUsc, Algo::kPageRank, true},
             {"wiki", 1000, 8, UpdatePolicy::kAbrUscHau, Algo::kPageRank,
              true},
             // Aggregates (overlap 0.42): batches 2 and 4 defer, so the
             // stream ends on a deferred round that must still be charged.
             {"fb", 5000, 4, UpdatePolicy::kAbrUsc, Algo::kPageRank, true},
         }},
    };
    return kSets;
}

} // namespace

int
main(int argc, char** argv)
{
    igs::bench::JsonSink json_sink("golden_replay", argc, argv);

    const char* set_name = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--set=", 6) == 0) {
            set_name = argv[i] + 6;
        }
    }
    const GoldenSet* set = nullptr;
    for (const GoldenSet& s : sets()) {
        if (set_name != nullptr && s.name == std::string(set_name)) {
            set = &s;
        }
    }
    if (set == nullptr) {
        std::fprintf(stderr,
                     "usage: bench_golden_replay --set=<name> "
                     "[--json=<path>]\nsets:");
        for (const GoldenSet& s : sets()) {
            std::fprintf(stderr, " %s", s.name);
        }
        std::fprintf(stderr, "\n");
        return 2;
    }

    bench::banner("golden replay", "regression harness, not a paper figure",
                  set->name);
    TextTable t({"dataset", "batch", "policy", "algo", "oca", "upd Mcyc",
                 "cmp Mcyc"});
    for (const Replay& r : set->replays) {
        const auto res =
            bench::run_stream(gen::find_dataset(r.dataset), r.batch_size,
                              r.num_batches, r.policy, r.algo, r.oca);
        t.row()
            .cell(r.dataset)
            .cell(static_cast<std::uint64_t>(r.batch_size))
            .cell(core::to_string(r.policy))
            .cell(bench::to_string(r.algo))
            .cell(std::string(r.oca ? "yes" : "no"))
            .cell(static_cast<double>(res.update_cycles) / 1e6)
            .cell(static_cast<double>(res.compute_cycles) / 1e6);
    }
    t.print();
    return 0;
}
