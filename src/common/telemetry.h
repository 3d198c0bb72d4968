/**
 * @file
 * Process-wide structured telemetry: named metrics + stable JSON export.
 *
 * Every runtime decision the paper's techniques make (ABR reorder-or-not,
 * USC, HAU routing, OCA aggregation) and every modeled cost flows through
 * a handful of hot loops; this registry makes them observable without
 * perturbing them:
 *
 *  - @ref Counter — monotonic u64, sharded relaxed atomics so concurrent
 *    increments from real-engine workers never bounce one cacheline;
 *  - @ref Gauge — double with set / add / watermark (CAS max);
 *  - @ref Histogram — fixed bucket bounds chosen at registration; record()
 *    is a bounded scan plus one relaxed fetch_add and one sum update on
 *    the calling thread's shard (sharded like Counter);
 *  - @ref PhaseTimer — wall-clock accumulation for harness phases
 *    (never part of golden comparisons).
 *
 * Contract for hot paths (enforced by tests/test_telemetry.cc with
 * common/alloc_counter.h): after registration, Counter::inc,
 * Gauge::set/add/watermark and Histogram::record perform zero heap
 * allocations and take no locks.  Registration itself (name lookup under
 * the annotated igs::Mutex) is setup-time only — components resolve their
 * metrics once and keep the references, which stay valid for the process
 * lifetime (reset_values() zeroes in place, it never invalidates).
 *
 * Naming scheme (DESIGN.md §9): `<area>.<subsystem>.<metric>`, e.g.
 * `core.abr.reorder_batches`, `sim.update.lock_wait_cycles`,
 * `stream.reorder.scratch_edges_watermark`.
 *
 * Serialization: @ref Registry::to_json emits metrics sorted by name with
 * shortest-round-trip double formatting (std::to_chars), so two snapshots
 * of equal state are byte-identical — the property the golden-run harness
 * (tools/golden_check.py) relies on.
 */
#ifndef IGS_COMMON_TELEMETRY_H
#define IGS_COMMON_TELEMETRY_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"

namespace igs::telemetry {

/** Monotonic counter; increments are relaxed fetch_adds on a per-thread
 *  shard (no shared-line bouncing under the real-time engine's workers). */
class Counter {
  public:
    Counter() = default;
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void
    inc(std::uint64_t n = 1) noexcept
    {
        shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
    }

    /** Sum over shards (merge); racing increments may or may not be seen. */
    std::uint64_t
    value() const noexcept
    {
        std::uint64_t total = 0;
        for (const Shard& s : shards_) {
            total += s.v.load(std::memory_order_relaxed);
        }
        return total;
    }

    void
    reset() noexcept
    {
        for (Shard& s : shards_) {
            s.v.store(0, std::memory_order_relaxed);
        }
    }

    static constexpr std::size_t kShards = 8;

    /** The calling thread's shard slot in [0, kShards); Histogram shards
     *  by the same slot. */
    static std::size_t shard_index() noexcept;

  private:
    struct alignas(64) Shard {
        std::atomic<std::uint64_t> v{0};
    };

    Shard shards_[kShards];
};

/** Double-valued gauge: set, accumulate, or track a high-water mark. */
class Gauge {
  public:
    Gauge() = default;
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }

    void
    add(double delta) noexcept
    {
        double cur = v_.load(std::memory_order_relaxed);
        while (!v_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
        }
    }

    /** Raise the gauge to `v` if `v` exceeds the current value. */
    void
    watermark(double v) noexcept
    {
        double cur = v_.load(std::memory_order_relaxed);
        while (cur < v &&
               !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
        }
    }

    double value() const noexcept { return v_.load(std::memory_order_relaxed); }
    void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Fixed-bucket histogram.  Bucket i counts samples with
 * `v <= bounds[i]` (first matching bound); the implicit last bucket is
 * +inf.  Bounds are fixed at registration so record() never allocates.
 *
 * Sharded like @ref Counter: each of Counter::kShards shards holds its own
 * bucket counts and sum on cache lines of its own, chosen by the calling
 * thread's Counter::shard_index(), so pool workers recording the same
 * histogram never share a line.  Reads sum the shards.  A histogram
 * recorded by one thread keeps every sample in one shard, so its sum is
 * the one-thread sum bit for bit; samples from several threads land in
 * several shards, and their sum is exact as long as the samples are
 * integers (partial sums of integers below 2^53 round nowhere).
 */
class Histogram {
  public:
    explicit Histogram(std::span<const double> bounds);
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void
    record(double v) noexcept
    {
        std::size_t i = 0;
        while (i < bounds_.size() && v > bounds_[i]) {
            ++i;
        }
        const std::size_t shard = Counter::shard_index();
        cell(shard, i).fetch_add(1, std::memory_order_relaxed);
        // The shard's sum, kept as the bits of a double.
        std::atomic<std::uint64_t>& sum = cell(shard, sum_cell());
        std::uint64_t cur = sum.load(std::memory_order_relaxed);
        while (!sum.compare_exchange_weak(
            cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + v),
            std::memory_order_relaxed, std::memory_order_relaxed)) {
        }
    }

    const std::vector<double>& bounds() const { return bounds_; }
    /** Samples in bucket `i`, summed over the shards. */
    std::uint64_t bucket_count(std::size_t i) const;
    std::uint64_t total_count() const;
    /** Sum of the samples: the shard sums added in shard order. */
    double sum() const;
    /** Zero every shard. */
    void reset() noexcept;

  private:
    /** One cache line of a shard's cells. */
    struct alignas(64) Line {
        static constexpr std::size_t kCells = 8;
        std::atomic<std::uint64_t> cells[kCells];
    };

    /** A shard's cells: one count per bucket, then the sum's bits. */
    std::size_t sum_cell() const { return bounds_.size() + 1; }

    std::atomic<std::uint64_t>&
    cell(std::size_t shard, std::size_t i) noexcept
    {
        return lines_[shard * lines_per_shard_ + i / Line::kCells]
            .cells[i % Line::kCells];
    }

    const std::atomic<std::uint64_t>&
    cell(std::size_t shard, std::size_t i) const noexcept
    {
        return lines_[shard * lines_per_shard_ + i / Line::kCells]
            .cells[i % Line::kCells];
    }

    std::vector<double> bounds_;
    std::size_t lines_per_shard_;
    /** Counter::kShards shards of lines_per_shard_ lines each. */
    std::vector<Line> lines_;
};

/** Wall-clock phase accumulator (total seconds + invocation count). */
class PhaseTimer {
  public:
    PhaseTimer() = default;
    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;

    void
    add(double seconds) noexcept
    {
        seconds_.add(seconds);
        count_.inc();
    }

    double total_seconds() const { return seconds_.value(); }
    std::uint64_t count() const { return count_.value(); }

    void
    reset() noexcept
    {
        seconds_.reset();
        count_.reset();
    }

  private:
    Gauge seconds_;
    Counter count_;
};

/**
 * Append-only metric registry.  Metric objects are owned by the registry
 * and never destroyed or moved; the references handed out stay valid for
 * the process lifetime.  Re-registering a name returns the existing metric
 * (histograms additionally require identical bounds); registering one name
 * under two different types aborts.
 */
class Registry {
  public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /** The process-wide default registry. */
    static Registry& global();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name,
                         std::span<const double> bounds);
    PhaseTimer& phase(std::string_view name);

    /** Zero every metric in place (references stay valid).  Test/golden
     *  isolation; not meant for concurrent use with active writers. */
    void reset_values();

    /**
     * Stable JSON snapshot: one object with "counters", "gauges",
     * "histograms", "phases" sub-objects, each sorted by metric name.
     * `indent` > 0 pretty-prints with that many spaces per level.
     */
    std::string to_json(int indent = 2) const;

  private:
    enum class Kind { kCounter, kGauge, kHistogram, kPhase };

    void check_name_free(const std::string& name, Kind want) const
        IGS_REQUIRES(mu_);

    mutable Mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
        IGS_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
        IGS_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
        IGS_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<PhaseTimer>, std::less<>> phases_
        IGS_GUARDED_BY(mu_);
};

/** Snapshot of @ref Registry::global() (convenience). */
std::string to_json(int indent = 2);

/**
 * Minimal streaming JSON writer (no external deps).  Produces stable
 * output: keys are emitted in caller order, doubles use shortest
 * round-trip formatting, non-finite doubles become null.  Used by the
 * registry snapshot and the bench `--json` exporter.
 */
class JsonWriter {
  public:
    explicit JsonWriter(int indent = 2) : indent_(indent) {}

    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();

    /** Key inside an object; follow with a value or begin_*. */
    JsonWriter& key(std::string_view k);

    JsonWriter& value(std::string_view s);
    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(double d);
    JsonWriter& value(std::uint64_t u);
    JsonWriter& value(std::int64_t i);
    JsonWriter& value(std::uint32_t u) { return value(std::uint64_t{u}); }
    JsonWriter& value(int i) { return value(std::int64_t{i}); }
    JsonWriter& value(bool b);
    JsonWriter& null();

    /** Splice a pre-serialized JSON value (e.g. a Registry snapshot) in
     *  value position.  The fragment is emitted verbatim. */
    JsonWriter& raw(std::string_view json);

    /** Shorthand: key + scalar value. */
    template <typename T>
    JsonWriter&
    kv(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

    /** The finished document (all scopes must be closed). */
    std::string take();

    /** Format a double exactly as value(double) would (shared with tests
     *  and the golden tooling's expectations). */
    static std::string format_double(double d);

  private:
    void before_value();
    void newline_indent();
    void append_quoted(std::string_view s);

    std::string out_;
    std::vector<bool> scope_has_item_; // one entry per open scope
    bool pending_key_ = false;
    int indent_ = 2;
};

} // namespace igs::telemetry

#endif // IGS_COMMON_TELEMETRY_H
