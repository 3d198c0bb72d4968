/**
 * @file
 * Shared test scaffolding: deterministic stream/batch builders, engine
 * configs, and state-equality assertions used by the engine-equivalence
 * suites (test_pipeline.cc, test_hybrid_store.cc, test_incremental.cc).
 *
 * The builders are *definitional* for several suites at once: two tests
 * calling pipeline_batch(k, n, seed) must get byte-identical batches or
 * their cross-engine comparisons silently weaken.  Change a model
 * parameter here and every equivalence suite moves together.
 */
#ifndef IGS_TESTS_TEST_SUPPORT_H
#define IGS_TESTS_TEST_SUPPORT_H

#include <cstdlib>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "gen/edge_stream.h"
#include "graph/adjacency_list.h"
#include "graph/snapshot_view.h"
#include "graph/store_tuning.h"
#include "stream/batch.h"

namespace igs::testutil {

/** The pipeline suites' batch model: 2000 vertices, mild hub skew. */
inline stream::EdgeBatch
pipeline_batch(std::uint64_t id, std::size_t n, std::uint64_t seed)
{
    gen::StreamModel m;
    m.num_vertices = 2000;
    m.num_hubs = 8;
    m.hub_mass_dst = 0.3;
    m.seed = seed;
    stream::EdgeBatch b;
    b.id = id;
    b.set_edges(gen::EdgeStreamGenerator(m).take(n));
    return b;
}

inline core::EngineConfig
pipeline_config(core::UpdatePolicy policy, unsigned depth)
{
    core::EngineConfig cfg;
    cfg.policy = policy;
    cfg.abr.n = 2;
    cfg.pipeline_depth = depth;
    return cfg;
}

/** The backend-engine suites' batch model: 500 vertices, in-band
 *  deletions. */
inline stream::EdgeBatch
engine_batch(std::uint64_t id, std::size_t n, std::uint64_t seed)
{
    gen::StreamModel m;
    m.num_vertices = 500;
    m.num_hubs = 8;
    m.hub_mass_dst = 0.4;
    m.delete_fraction = 0.1;
    m.seed = seed;
    return stream::EdgeBatch(id, gen::EdgeStreamGenerator(m).take(n));
}

/** A mixed insert/delete stream with enough per-vertex concentration to
 *  push hot vertices across both promotion boundaries. */
inline std::vector<StreamEdge>
mixed_stream(std::size_t n, std::uint64_t seed)
{
    gen::StreamModel m;
    m.num_vertices = 300;
    m.num_hubs = 6;
    m.hub_mass_dst = 0.5;
    m.delete_fraction = 0.25;
    m.seed = seed;
    return gen::EdgeStreamGenerator(m).take(n);
}

/** Tuning with a low hash threshold so tests cross both promotion
 *  boundaries with small degrees. */
inline graph::StoreTuning
tight_tuning()
{
    graph::StoreTuning t;
    t.hybrid_sorted_threshold = 8;
    t.dah_hash_threshold = 8;
    return t;
}

/** The snapshot equals the live store row by row, in order. */
template <typename Live>
void
expect_snapshot_matches_live(const graph::SnapshotView& snap, const Live& live)
{
    ASSERT_EQ(snap.num_vertices(), live.num_vertices());
    EXPECT_EQ(snap.num_edges(), live.num_edges());
    for (VertexId v = 0; v < live.num_vertices(); ++v) {
        for (Direction dir : {Direction::kOut, Direction::kIn}) {
            const auto& row = live.edges(v, dir);
            EXPECT_EQ(snap.edges(v, dir),
                      std::vector<Neighbor>(row.begin(), row.end()))
                << "vertex " << v << " dir " << to_string(dir);
        }
    }
}

inline void
expect_reports_equal(const core::BatchReport& a, const core::BatchReport& b)
{
    EXPECT_EQ(a.batch_id, b.batch_id);
    EXPECT_EQ(a.abr_active, b.abr_active);
    EXPECT_EQ(a.reordered, b.reordered);
    EXPECT_EQ(a.used_usc, b.used_usc);
    EXPECT_EQ(a.used_hau, b.used_hau);
    ASSERT_EQ(a.cad.has_value(), b.cad.has_value());
    if (a.cad.has_value()) {
        EXPECT_EQ(a.cad->cad_out, b.cad->cad_out);
        EXPECT_EQ(a.cad->cad_in, b.cad->cad_in);
        EXPECT_EQ(a.cad->max_out_degree, b.cad->max_out_degree);
        EXPECT_EQ(a.cad->max_in_degree, b.cad->max_in_degree);
    }
    EXPECT_EQ(a.overlap, b.overlap);
    EXPECT_EQ(a.defer_compute, b.defer_compute);
    EXPECT_EQ(a.instrumentation_cycles, b.instrumentation_cycles);
    EXPECT_EQ(a.update.cycles, b.update.cycles);
    EXPECT_EQ(a.update.probes, b.update.probes);
    EXPECT_EQ(a.update.inserts, b.update.inserts);
    EXPECT_EQ(a.update.removes, b.update.removes);
    EXPECT_EQ(a.update_hidden_cycles, b.update_hidden_cycles);
    // wall_seconds is wall clock: nondeterministic by nature, excluded.
}

/**
 * Seeds for a randomized harness: the suite's defaults, or the single
 * seed in $IGS_TEST_SEED (reproduce a failure by exporting the seed the
 * failing run printed).
 */
inline std::vector<std::uint64_t>
harness_seeds(std::initializer_list<std::uint64_t> defaults)
{
    if (const char* env = std::getenv("IGS_TEST_SEED")) {
        return {std::strtoull(env, nullptr, 10)};
    }
    return defaults;
}

/** Tag every assertion under this scope with the seed that drove it. */
inline std::string
seed_trace(std::uint64_t seed)
{
    return "seed=" + std::to_string(seed) +
           " (rerun with IGS_TEST_SEED=" + std::to_string(seed) + ")";
}

} // namespace igs::testutil

#endif // IGS_TESTS_TEST_SUPPORT_H
