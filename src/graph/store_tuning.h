/**
 * @file
 * Runtime tuning knobs shared by the adaptive graph stores.
 *
 * The degree thresholds at which @ref igs::graph::DegreeAwareHash and
 * @ref igs::graph::HybridStore change a vertex's edge-set representation
 * used to be hard-coded constants; as runtime values an engine
 * (EngineConfig::store) or a test can pick them per store.  The benches
 * use the defaults, and every bench's JSON `host` block echoes them so
 * golden diffs are threshold-aware (tools/golden_check.py).
 *
 * The defaults reproduce the historical constants, so a
 * default-constructed StoreTuning is behavior-identical to the
 * pre-tunable stores.
 */
#ifndef IGS_GRAPH_STORE_TUNING_H
#define IGS_GRAPH_STORE_TUNING_H

#include <cstdint>

namespace igs::graph {

/** Tier/migration thresholds for the adaptive stores. */
struct StoreTuning {
    /**
     * DegreeAwareHash: degree at which a vertex's edge array migrates to
     * an open-addressed hash table.
     */
    std::uint32_t dah_hash_threshold = 32;

    /**
     * HybridStore: degree at which a tier-1 sorted array promotes to the
     * tier-2 hash-indexed representation.  (The tier-0 -> tier-1
     * promotion point is HybridEdgeSet::kInlineCapacity, a compile-time
     * layout property of the vertex record, not a tunable.)
     */
    std::uint32_t hybrid_sorted_threshold = 128;
};

} // namespace igs::graph

#endif // IGS_GRAPH_STORE_TUNING_H
