/**
 * @file
 * Execution contexts for the update kernels.
 *
 * The kernels in updaters.h are written once and instantiated against an
 * execution context that decides *how* tasks run:
 *
 *  - @ref RealContext — production mode: tasks run on a thread pool with
 *    real per-vertex spinlocks; all cost hooks are no-ops.
 *  - igs::sim::SimContext (src/sim/sim_context.h) — bench mode: tasks are
 *    replayed sequentially while a virtual 16-worker schedule with
 *    per-vertex lock resources accounts cycles on the paper's Table-1
 *    machine.  See DESIGN.md for why simulation is the primary metric.
 *
 * Both contexts run the same kernel code over the same store; only the
 * scheduling and the cost hooks differ.
 *
 * Context concept (duck-typed; both contexts implement it):
 *
 *   void for_tasks(n, chunk, body);          // parallel loop, body(i)
 *   void for_worker_tasks(n, chunk, body);   // parallel loop, body(worker, i)
 *                                            // worker < workers(); stable id
 *   std::size_t workers();                   // max worker id bound + 1
 *   FlatWeightTable& usc_table(worker);      // worker's reusable USC table
 *   void locked_apply(graph, v, dir, fn);    // fn() -> ApplyResult under
 *                                            // (v,dir)'s lock
 *   void apply(fn);                          // fn() -> ApplyResult, no lock
 *   void charge_sort(n);                     // one stable sort of n edges
 *   void charge_pass_setup();                // per update pass
 *   void charge_run_overhead();              // per vertex run (RO sched)
 *   void charge_hash_build(n);               // USC table build, n edges
 *   void charge_coalesced_scan(len, probes, inserts);  // USC single scan
 *   void end_phase();                        // join / virtual barrier
 */
#ifndef IGS_STREAM_UPDATE_CONTEXT_H
#define IGS_STREAM_UPDATE_CONTEXT_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/flat_table.h"
#include "common/spinlock.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace igs::stream {

/** Default chunk of edges claimed per dynamic-scheduling grab (baseline). */
inline constexpr std::size_t kEdgeChunk = 256;
/** Default chunk of vertex runs claimed per grab (reordered updates). */
inline constexpr std::size_t kRunChunk = 8;

/**
 * OCA's online inter-batch locality instrumentation (paper §5): counts
 * unique sources in the current batch and how many of them also appeared
 * in the immediately preceding batch.
 */
class OcaProbe {
  public:
    /** Record a first-touch of a source whose previous batch id was
     *  `prev_bid`, in batch `bid`.  Batch ids are 1-based; a prev_bid of
     *  0 means the vertex was never seen. */
    void
    note(std::uint64_t prev_bid, std::uint64_t bid)
    {
        nodes_.fetch_add(1, std::memory_order_relaxed);
        if (prev_bid != 0 && prev_bid + 1 == bid) {
            overlap_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    std::uint64_t
    unique_nodes() const
    {
        return nodes_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    overlapping_nodes() const
    {
        return overlap_.load(std::memory_order_relaxed);
    }

    /** overlap_counter / node_counter, the paper's locality measure. */
    double
    ratio() const
    {
        const std::uint64_t n = nodes_.load(std::memory_order_relaxed);
        return n == 0 ? 0.0
                      : static_cast<double>(
                            overlap_.load(std::memory_order_relaxed)) /
                            static_cast<double>(n);
    }

  private:
    std::atomic<std::uint64_t> overlap_{0};
    std::atomic<std::uint64_t> nodes_{0};
};

/**
 * Per-worker USC coalescing tables, reusable across batches.  Owned by the
 * engine (so capacity survives between ingests) and lent to RealContext;
 * a context constructed without one falls back to internal storage.
 */
struct UscScratch {
    std::vector<FlatWeightTable> tables;
};

/** Production context: real parallelism, real locks, no cost accounting. */
class RealContext {
  public:
    explicit RealContext(ThreadPool& pool = default_pool(),
                         UscScratch* usc = nullptr)
        : pool_(pool), usc_(usc != nullptr ? usc : &own_usc_)
    {
        // Sized up front: usc_table() is called from inside parallel
        // regions, where growing the vector would race.
        if (usc_->tables.size() < pool_.size()) {
            usc_->tables.resize(pool_.size());
        }
    }

    template <typename F>
    void
    for_tasks(std::size_t n, std::size_t chunk, F&& body)
    {
        pool_.parallel_for(0, n, body, chunk);
    }

    /** Parallel loop whose body also receives a stable worker id, so it can
     *  address per-worker scratch (e.g. @ref usc_table) without locking. */
    template <typename F>
    void
    for_worker_tasks(std::size_t n, std::size_t chunk, F&& body)
    {
        pool_.parallel_chunks(
            0, n,
            [&body](std::size_t tid, std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                    body(tid, i);
                }
            },
            chunk);
    }

    std::size_t workers() const { return pool_.size(); }

    /** Reusable coalescing table of `worker` (never shrunk). */
    FlatWeightTable& usc_table(std::size_t worker)
    {
        return usc_->tables[worker];
    }

    template <typename Graph, typename F>
    void
    locked_apply(Graph& g, VertexId v, Direction dir, F&& fn)
    {
        SpinlockGuard lk(g.lock(v, dir));
        (void)fn();
    }

    template <typename F>
    void
    apply(F&& fn)
    {
        (void)fn();
    }

    void charge_sort(std::size_t) {}
    void charge_pass_setup() {}
    void charge_run_overhead() {}
    void charge_hash_build(std::size_t) {}
    void charge_coalesced_scan(std::size_t, std::size_t, std::size_t) {}
    void end_phase() {}

    ThreadPool& pool() { return pool_; }

  private:
    ThreadPool& pool_;
    UscScratch* usc_;
    UscScratch own_usc_; // fallback when no engine-owned scratch is lent
};

} // namespace igs::stream

#endif // IGS_STREAM_UPDATE_CONTEXT_H
