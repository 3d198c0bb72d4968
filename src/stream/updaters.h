/**
 * @file
 * The three software update kernels of the paper, templated over graph
 * structure and execution context (see update_context.h):
 *
 *  - @ref apply_batch_baseline — edge-centric parallelism, one task per
 *    streamed edge, per-vertex locks around each duplicate-check-and-apply
 *    (the "baseline" of §3.2);
 *  - @ref apply_batch_reordered — vertex-centric lock-free updates over a
 *    reordered batch: one task per vertex run, two passes (by-source for
 *    out-edges, by-destination for in-edges);
 *  - @ref apply_batch_usc — reordered updates with Update Search Coalescing
 *    (§4.3): per run, all incoming targets go into a small hash table and
 *    the vertex's edge data is scanned once against it.
 *
 * All kernels implement the same engine semantics (insertions before
 * deletions; duplicate insertion accumulates weight) and therefore produce
 * identical final graph state — property-tested in tests/.
 */
#ifndef IGS_STREAM_UPDATERS_H
#define IGS_STREAM_UPDATERS_H

#include <cstdint>

#include "common/flat_table.h"
#include "common/types.h"
#include "stream/batch.h"
#include "stream/reorder.h"
#include "stream/update_context.h"

namespace igs::stream {

/**
 * Record `src`'s appearance in batch `bid`, feeding OCA's locality probe
 * (exactly once per unique source per batch, via atomic exchange).
 */
template <typename Graph>
inline void
touch_source(Graph& g, VertexId src, std::uint64_t bid, OcaProbe* probe)
{
    const std::uint64_t prev = g.exchange_latest_bid(src, bid);
    if (prev != bid && probe != nullptr) {
        probe->note(prev, bid);
    }
}

/** True if the batch contains at least one deletion (cached at fill time). */
inline bool
batch_has_deletes(const EdgeBatch& batch)
{
    return batch.has_deletes();
}

/**
 * Baseline edge-centric update: one parallel task per streamed edge; each
 * endpoint's edge array is mutated under that vertex's lock.
 */
template <typename Graph, typename Ctx>
void
apply_batch_baseline(Graph& g, const EdgeBatch& batch, Ctx& ctx,
                     OcaProbe* probe = nullptr)
{
    const auto& edges = batch.edges();
    ctx.charge_pass_setup();
    // Insertions first (engine-wide ordering rule).
    ctx.for_tasks(edges.size(), kEdgeChunk, [&](std::size_t i) {
        const StreamEdge& e = edges[i];
        if (e.is_delete) {
            return;
        }
        touch_source(g, e.src, batch.id, probe);
        ctx.locked_apply(g, e.src, Direction::kOut, [&] {
            return g.apply_insert(e.src, Neighbor{e.dst, e.weight},
                                  Direction::kOut);
        });
        ctx.locked_apply(g, e.dst, Direction::kIn, [&] {
            return g.apply_insert(e.dst, Neighbor{e.src, e.weight},
                                  Direction::kIn);
        });
    });
    ctx.end_phase();

    if (!batch_has_deletes(batch)) {
        return;
    }
    ctx.charge_pass_setup();
    ctx.for_tasks(edges.size(), kEdgeChunk, [&](std::size_t i) {
        const StreamEdge& e = edges[i];
        if (!e.is_delete) {
            return;
        }
        touch_source(g, e.src, batch.id, probe);
        ctx.locked_apply(g, e.src, Direction::kOut, [&] {
            return g.apply_remove(e.src, e.dst, Direction::kOut);
        });
        ctx.locked_apply(g, e.dst, Direction::kIn, [&] {
            return g.apply_remove(e.dst, e.src, Direction::kIn);
        });
    });
    ctx.end_phase();
}

namespace detail {

/** Apply one direction of a reordered batch, one task per vertex run. */
template <typename Graph, typename Ctx>
void
apply_reordered_direction(Graph& g, const ReorderedDirection& rd,
                          Direction dir, std::uint64_t bid, Ctx& ctx,
                          OcaProbe* probe)
{
    ctx.charge_pass_setup();
    ctx.for_tasks(rd.runs.size(), kRunChunk, [&](std::size_t ri) {
        const VertexRun& run = rd.runs[ri];
        ctx.charge_run_overhead();
        if (dir == Direction::kOut) {
            touch_source(g, run.vertex, bid, probe);
        }
        // Insertions of the run, then deletions (pairs of ops on the same
        // edge always share both the src run and the dst run, so per-run
        // ordering is equivalent to batch-global ordering).
        for (std::uint32_t i = run.begin; i < run.end; ++i) {
            const StreamEdge& e = rd.edges[i];
            if (e.is_delete) {
                continue;
            }
            const Neighbor nbr = dir == Direction::kOut
                                     ? Neighbor{e.dst, e.weight}
                                     : Neighbor{e.src, e.weight};
            ctx.apply([&] { return g.apply_insert(run.vertex, nbr, dir); });
        }
        for (std::uint32_t i = run.begin; i < run.end; ++i) {
            const StreamEdge& e = rd.edges[i];
            if (!e.is_delete) {
                continue;
            }
            const VertexId nbr = dir == Direction::kOut ? e.dst : e.src;
            ctx.apply([&] { return g.apply_remove(run.vertex, nbr, dir); });
        }
    });
    ctx.end_phase();
}

} // namespace detail

/**
 * Reordered (RO) vertex-centric update: requires `rb = reorder_batch(...)`.
 * `charge_sort` accounts the two stable sorts the reordering performed.
 */
template <typename Graph, typename Ctx>
void
apply_batch_reordered(Graph& g, const EdgeBatch& batch,
                      const ReorderedBatch& rb, Ctx& ctx,
                      OcaProbe* probe = nullptr)
{
    ctx.charge_sort(rb.batch_size);
    ctx.charge_sort(rb.batch_size);
    detail::apply_reordered_direction(g, rb.by_src, Direction::kOut, batch.id,
                                      ctx, probe);
    detail::apply_reordered_direction(g, rb.by_dst, Direction::kIn, batch.id,
                                      ctx, probe);
}

namespace detail {

/**
 * One direction of a USC update.  Per run: accumulate the run's insertions
 * into a hash table, scan the vertex's edge data once against it (updating
 * weights of matches in place), then append the remainder.
 */
template <typename Graph, typename Ctx>
void
apply_usc_direction(Graph& g, const ReorderedDirection& rd, Direction dir,
                    std::uint64_t bid, Ctx& ctx, OcaProbe* probe)
{
    ctx.charge_pass_setup();
    ctx.for_worker_tasks(rd.runs.size(), kRunChunk,
                         [&](std::size_t worker, std::size_t ri) {
        const VertexRun& run = rd.runs[ri];
        ctx.charge_run_overhead();
        if (dir == Direction::kOut) {
            touch_source(g, run.vertex, bid, probe);
        }

        // Step 1 (Fig 8): populate the run's target -> weight table,
        // accumulating duplicate targets within the run.  The table is
        // this worker's reusable open-addressing array (no per-run node
        // allocations).
        FlatWeightTable& table = ctx.usc_table(worker);
        table.reset(run.size());
        std::size_t num_inserts = 0;
        for (std::uint32_t i = run.begin; i < run.end; ++i) {
            const StreamEdge& e = rd.edges[i];
            if (e.is_delete) {
                continue;
            }
            const VertexId target = dir == Direction::kOut ? e.dst : e.src;
            table.add(target, e.weight);
            ++num_inserts;
        }
        ctx.charge_hash_build(num_inserts);

        if (!table.empty()) {
            // Steps 2-4 (Fig 8): one scan of the edge data, hash lookups
            // per element, then append the non-matching remainder.  The
            // store runs it, so the row's change mark and growth rule stay
            // with the row.
            const std::size_t len_before = g.degree(run.vertex, dir);
            const std::size_t appended =
                g.apply_coalesced(run.vertex, dir, table);
            ctx.charge_coalesced_scan(len_before, len_before, appended);
        }

        // Deletions of the run (after the run's insertions).
        for (std::uint32_t i = run.begin; i < run.end; ++i) {
            const StreamEdge& e = rd.edges[i];
            if (!e.is_delete) {
                continue;
            }
            const VertexId nbr = dir == Direction::kOut ? e.dst : e.src;
            ctx.apply([&] { return g.apply_remove(run.vertex, nbr, dir); });
        }
    });
    ctx.end_phase();
}

} // namespace detail

/**
 * Reordered update with Update Search Coalescing.  Only meaningful on
 * reordering-friendly batches (ABR decides); equivalent in outcome to
 * apply_batch_reordered.
 */
template <typename Graph, typename Ctx>
void
apply_batch_usc(Graph& g, const EdgeBatch& batch, const ReorderedBatch& rb,
                Ctx& ctx, OcaProbe* probe = nullptr)
{
    ctx.charge_sort(rb.batch_size);
    ctx.charge_sort(rb.batch_size);
    detail::apply_usc_direction(g, rb.by_src, Direction::kOut, batch.id, ctx,
                                probe);
    detail::apply_usc_direction(g, rb.by_dst, Direction::kIn, batch.id, ctx,
                                probe);
}

} // namespace igs::stream

#endif // IGS_STREAM_UPDATERS_H
