/**
 * @file
 * Radix batch reordering: a stable LSD counting-sort pipeline that produces
 * byte-identical output to the comparison-sort path in O(n) host work, with
 * every buffer recycled through a ReorderScratch arena.
 *
 * Pipeline per batch (bits = 16 for large batches, 8 for small ones):
 *
 *  1. One fused parallel pass over the raw batch builds per-worker
 *     histograms of the source and destination low digits *and* the max
 *     vertex id (the capacity scan the engine otherwise pays separately).
 *  2. Per direction, each radix pass turns its histograms into scatter
 *     offsets (bucket-major/worker-minor exclusive prefix — stability by
 *     construction) and scatters edges chunk-parallel into the ping-pong
 *     buffers; the final pass lands in the ReorderedBatch storage.
 *  3. Run boundaries come from the final histogram prefix when one pass
 *     suffices (max vertex < bucket count), else from a chunk-parallel
 *     boundary scan — either way the serial build_runs pass is gone.
 *
 * Allocation discipline: pool jobs are dispatched through lambdas whose
 * captures fit std::function's small-object buffer, and all arrays grow
 * monotonically inside the scratch arena, so steady-state reordering
 * performs zero heap allocations (asserted by tests/test_reorder_radix.cc).
 * Every function here is a hot-path root in tools/layers.toml, so
 * tools/igs_analyze.py enforces that discipline: any new allocation or
 * container growth must carry an audited `igs-lint: allow(hot-path-alloc)`.
 */
#include "stream/reorder.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/radix.h"

namespace igs::stream {
namespace detail {
namespace {

struct SrcKey {
    VertexId operator()(const StreamEdge& e) const { return e.src; }
};
struct DstKey {
    VertexId operator()(const StreamEdge& e) const { return e.dst; }
};

/** Grow-only resize: never releases arena capacity. */
template <typename T>
void
ensure_scratch_size(std::vector<T>& v, std::size_t n)
{
    if (v.size() < n) {
        v.resize(n); // igs-lint: allow(hot-path-alloc) grow-only arena
    }
}

/**
 * Run `body(worker)` for workers [0, workers).  The dispatch lambda holds
 * two words so std::function keeps it in its small-object buffer — no
 * allocation on the steady-state path.
 */
template <typename F>
void
run_workers(ThreadPool& pool, std::size_t workers, F&& body)
{
    if (workers <= 1) {
        body(0);
        return;
    }
    const F* fn = &body;
    pool.run([fn, workers](std::size_t tid) {
        if (tid < workers) {
            (*fn)(tid);
        }
    });
}

/** Worker count for a batch of `n` edges (1 below the fork/join cutoff). */
std::size_t
radix_workers(std::size_t n, ThreadPool& pool)
{
    constexpr std::size_t kSerialCutoff = 8192;
    constexpr std::size_t kMinPerWorker = 4096;
    if (n < kSerialCutoff || pool.size() <= 1) {
        return 1;
    }
    return std::min(pool.size(),
                    std::max<std::size_t>(1, n / kMinPerWorker));
}

/** Shared state of one counting or scatter pass (pointer-captured). */
struct PassCtx {
    const StreamEdge* in = nullptr;
    StreamEdge* out = nullptr;
    std::uint32_t* hist = nullptr;
    const std::size_t* bounds = nullptr;
    std::size_t stride = 0;
    std::size_t buckets_used = 0;
    std::uint32_t shift = 0;
    std::uint32_t mask = 0;
};

template <typename KeyOf>
void
count_pass(ThreadPool& pool, std::size_t workers, PassCtx& ctx)
{
    run_workers(pool, workers, [c = &ctx](std::size_t w) {
        std::uint32_t* row = c->hist + w * c->stride;
        std::fill_n(row, c->buckets_used, 0u);
        for (std::size_t i = c->bounds[w]; i < c->bounds[w + 1]; ++i) {
            ++row[(KeyOf{}(c->in[i]) >> c->shift) & c->mask];
        }
    });
}

template <typename KeyOf>
void
scatter_pass(ThreadPool& pool, std::size_t workers, PassCtx& ctx)
{
    run_workers(pool, workers, [c = &ctx](std::size_t w) {
        std::uint32_t* row = c->hist + w * c->stride;
        for (std::size_t i = c->bounds[w]; i < c->bounds[w + 1]; ++i) {
            const StreamEdge& e = c->in[i];
            c->out[row[(KeyOf{}(e) >> c->shift) & c->mask]++] = e;
        }
    });
}

/** Emit runs from bucket starts (single-pass case: bucket id == vertex). */
void
runs_from_histogram(const std::uint32_t* worker0_row,
                    std::size_t buckets_used, std::size_t n,
                    std::vector<VertexRun>& runs)
{
    runs.clear();
    for (std::size_t b = 0; b < buckets_used; ++b) {
        const std::uint32_t begin = worker0_row[b];
        const std::uint32_t end =
            b + 1 < buckets_used ? worker0_row[b + 1]
                                 : static_cast<std::uint32_t>(n);
        if (end > begin) {
            // igs-lint: allow(hot-path-alloc) reuses retained run capacity
            runs.push_back(
                VertexRun{static_cast<VertexId>(b), begin, end});
        }
    }
}

/** Shared state of the parallel run-boundary build (pointer-captured). */
struct RunsCtx {
    const StreamEdge* edges = nullptr;
    const std::size_t* bounds = nullptr;
    std::uint32_t* counts = nullptr; // per-worker boundary counts / offsets
    VertexRun* runs = nullptr;
};

/** Build the run index of sorted `edges` with a chunk-parallel boundary
 *  scan (multi-pass case, where no per-vertex histogram exists). */
template <typename KeyOf>
void
runs_from_boundaries(ThreadPool& pool, std::size_t workers,
                     std::span<const StreamEdge> edges,
                     ReorderScratch& s, std::vector<VertexRun>& runs)
{
    const std::size_t n = edges.size();
    ensure_scratch_size(s.run_counts, workers);
    RunsCtx ctx{edges.data(), s.bounds.data(), s.run_counts.data(), nullptr};

    run_workers(pool, workers, [c = &ctx](std::size_t w) {
        std::uint32_t count = 0;
        for (std::size_t i = c->bounds[w]; i < c->bounds[w + 1]; ++i) {
            count += i == 0 || KeyOf{}(c->edges[i - 1]) != KeyOf{}(c->edges[i]);
        }
        c->counts[w] = count;
    });

    std::size_t total = 0;
    for (std::size_t w = 0; w < workers; ++w) {
        const std::uint32_t count = s.run_counts[w];
        // total <= n (runs never outnumber edges) and every batch size
        // is CHECKed against uint32 max at the reorder entry point.
        // igs-lint: allow(unproven-narrowing)
        s.run_counts[w] = static_cast<std::uint32_t>(total);
        total += count;
    }
    runs.clear();
    runs.resize(total); // igs-lint: allow(hot-path-alloc) grow-only arena
    ctx.runs = runs.data();

    run_workers(pool, workers, [c = &ctx](std::size_t w) {
        std::uint32_t slot = c->counts[w];
        for (std::size_t i = c->bounds[w]; i < c->bounds[w + 1]; ++i) {
            if (i == 0 || KeyOf{}(c->edges[i - 1]) != KeyOf{}(c->edges[i])) {
                c->runs[slot++] = VertexRun{
                    KeyOf{}(c->edges[i]), static_cast<std::uint32_t>(i), 0};
            }
        }
    });

    for (std::size_t r = 0; r < total; ++r) {
        runs[r].end = r + 1 < total ? runs[r + 1].begin
                                    : static_cast<std::uint32_t>(n);
    }
}

/**
 * Radix-sort one direction of the batch into `out`.  `fused_hist` carries
 * pass-0 counts from the fused pass (16-bit plans), so the raw batch is
 * not re-read for counting; pass it null to count locally (8-bit plans).
 */
template <typename KeyOf>
void
radix_direction(std::span<const StreamEdge> raw, ReorderScratch& s,
                ReorderedDirection& out, const RadixPlan& plan,
                std::size_t workers, ThreadPool& pool,
                std::uint32_t* fused_hist, VertexId max_key)
{
    const std::size_t n = raw.size();
    const std::size_t stride = plan.buckets();
    ensure_scratch_size(s.hist, workers * stride);
    if (plan.passes > 1) {
        ensure_scratch_size(s.tmp, n);
    }

    PassCtx ctx;
    ctx.bounds = s.bounds.data();
    ctx.stride = stride;
    ctx.mask = plan.mask();

    const StreamEdge* in = raw.data();
    // Ping-pong schedule: the final pass must land in out.edges.
    StreamEdge* dst = plan.passes % 2 == 0 ? s.tmp.data() : out.edges.data();

    for (std::uint32_t p = 0; p < plan.passes; ++p) {
        ctx.shift = p * plan.bits;
        ctx.in = in;
        ctx.out = dst;
        const std::uint64_t max_digit =
            static_cast<std::uint64_t>(max_key) >> ctx.shift;
        ctx.buckets_used =
            std::min<std::size_t>(stride,
                                  static_cast<std::size_t>(max_digit) + 1);

        const bool have_counts = p == 0 && fused_hist != nullptr;
        ctx.hist = have_counts ? fused_hist : s.hist.data();
        if (!have_counts) {
            count_pass<KeyOf>(pool, workers, ctx);
        }
        radix_exclusive_offsets(ctx.hist, workers, stride, ctx.buckets_used);
        if (plan.passes == 1) {
            // Worker 0's offsets are the global bucket starts: the run
            // index falls out of the prefix sums before the scatter.
            runs_from_histogram(ctx.hist, ctx.buckets_used, n, out.runs);
        }
        scatter_pass<KeyOf>(pool, workers, ctx);

        in = dst;
        dst = dst == s.tmp.data() ? out.edges.data() : s.tmp.data();
    }

    if (plan.passes > 1) {
        runs_from_boundaries<KeyOf>(pool, workers, out.edges, s, out.runs);
    }
}

/** Shared state of the fused histogram + max-vertex pass. */
struct FusedCtx {
    const StreamEdge* in = nullptr;
    std::uint32_t* hist_src = nullptr;
    std::uint32_t* hist_dst = nullptr;
    const std::size_t* bounds = nullptr;
    VertexId* worker_max = nullptr;
    std::size_t stride = 0;
    std::uint32_t mask = 0;
};

} // namespace

VertexId
reorder_batch_radix(std::span<const StreamEdge> edges, ThreadPool& pool,
                    ReorderScratch& s)
{
    const std::size_t n = edges.size();
    IGS_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                  "batch too large for 32-bit run offsets");
    s.rb.batch_size = n;
    s.rb.by_src.edges.resize(n); // igs-lint: allow(hot-path-alloc) arena
    s.rb.by_dst.edges.resize(n); // igs-lint: allow(hot-path-alloc) arena
    if (n == 0) {
        s.rb.by_src.runs.clear();
        s.rb.by_dst.runs.clear();
        return 0;
    }

    const std::size_t workers = radix_workers(n, pool);
    ensure_scratch_size(s.bounds, workers + 1);
    for (std::size_t w = 0; w <= workers; ++w) {
        s.bounds[w] = n * w / workers;
    }

    RadixPlan plan = plan_radix(n, /*max_key=*/0); // bits fixed by n
    const std::size_t stride = plan.buckets();
    VertexId max_v = 0;

    bool fused = plan.bits == kMaxRadixBits;
    if (fused) {
        // One pass over the raw batch: src + dst low-digit histograms and
        // the max vertex id (subsumes the engine's capacity scan).
        ensure_scratch_size(s.hist, workers * stride);
        ensure_scratch_size(s.hist_dst, workers * stride);
        ensure_scratch_size(s.worker_max, workers);
        FusedCtx ctx{edges.data(), s.hist.data(),     s.hist_dst.data(),
                     s.bounds.data(), s.worker_max.data(), stride,
                     plan.mask()};
        run_workers(pool, workers, [c = &ctx](std::size_t w) {
            std::uint32_t* src_row = c->hist_src + w * c->stride;
            std::uint32_t* dst_row = c->hist_dst + w * c->stride;
            std::fill_n(src_row, c->stride, 0u);
            std::fill_n(dst_row, c->stride, 0u);
            VertexId max_v = 0;
            for (std::size_t i = c->bounds[w]; i < c->bounds[w + 1]; ++i) {
                const StreamEdge& e = c->in[i];
                ++src_row[e.src & c->mask];
                ++dst_row[e.dst & c->mask];
                max_v = std::max({max_v, e.src, e.dst});
            }
            c->worker_max[w] = max_v;
        });
        for (std::size_t w = 0; w < workers; ++w) {
            max_v = std::max(max_v, s.worker_max[w]);
        }
    } else {
        max_v = max_vertex_of(edges);
    }

    // Now that the key range is known, fix the pass count.  The fused
    // histograms remain valid pass-0 counts regardless of the pass count.
    plan = plan_radix(n, max_v);
    IGS_CHECK(plan.buckets() == stride);

    radix_direction<SrcKey>(edges, s, s.rb.by_src, plan, workers, pool,
                            fused ? s.hist.data() : nullptr, max_v);
    radix_direction<DstKey>(edges, s, s.rb.by_dst, plan, workers, pool,
                            fused ? s.hist_dst.data() : nullptr, max_v);
    return max_v;
}

} // namespace detail
} // namespace igs::stream
