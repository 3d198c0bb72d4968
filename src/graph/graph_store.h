/**
 * @file
 * GraphStore — the read-path interface of every graph storage backend.
 *
 * The compute phase only ever *reads* topology: `num_vertices()`,
 * `degree(v, dir)` and `edges(v, dir)`.  The update phase mutates a live
 * structure through a different, backend-specific surface (apply_insert /
 * apply_remove / apply_coalesced, which also lower per-row change marks).
 * Splitting the two lets the engine pipeline them: compute for epoch k
 * runs against an immutable @ref SnapshotView while the ingest of batch
 * k+1 mutates the live store (DESIGN.md §11, and the decoupled
 * ingest/compute model of the streaming-graph survey).
 *
 * Epoch tokens version the read path.  The live store's `epoch()` counts
 * compute hand-offs (it advances at each epoch publication); a snapshot's
 * `epoch()` names the publication it was copied at.  Consumers can assert
 * they are computing on the epoch they were handed.
 *
 * Implementations: the live stores over graph::LiveStore (AdjacencyList,
 * HybridStore, DegreeAwareHash; mutable) and graph::SnapshotView
 * (immutable, copy-on-publish) — checked by static_asserts in their
 * headers' tests.  All of them return `edges()` as a
 * std::span<const Neighbor>; the concept asks only for a range.
 */
#ifndef IGS_GRAPH_GRAPH_STORE_H
#define IGS_GRAPH_GRAPH_STORE_H

#include <concepts>
#include <cstdint>

#include "common/types.h"

namespace igs::graph {

/**
 * Read-only topology access — what analytics algorithms may touch.
 * `edges(v, dir)` must return an iterable range of @ref Neighbor.
 */
template <typename G>
concept GraphReadPath = requires(const G& g, VertexId v, Direction dir) {
    { g.num_vertices() } -> std::convertible_to<std::size_t>;
    { g.degree(v, dir) } -> std::convertible_to<std::uint32_t>;
    { g.edges(v, dir).begin() };
    { g.edges(v, dir).end() };
};

/** A versioned graph store: the read path plus an epoch token. */
template <typename G>
concept GraphStore = GraphReadPath<G> && requires(const G& g) {
    { g.epoch() } -> std::convertible_to<EpochId>;
};

} // namespace igs::graph

#endif // IGS_GRAPH_GRAPH_STORE_H
