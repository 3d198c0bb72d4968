/**
 * @file
 * Primitives for stable LSD counting/radix sorts over dense integer keys.
 *
 * The batch-reordering pipeline (stream/reorder_radix.cc) sorts a batch by
 * vertex id in one or more stable counting passes instead of a comparison
 * sort: per-worker histograms over contiguous input chunks, a bucket-major /
 * worker-minor exclusive prefix turning counts into scatter offsets, then a
 * chunk-parallel scatter.  Stability follows from the offset order: bucket,
 * then worker (chunks are contiguous), then arrival order within a chunk.
 *
 * These helpers are key-type agnostic; callers choose the digit plan and own
 * the histogram storage so it can live in a reusable arena.
 */
#ifndef IGS_COMMON_RADIX_H
#define IGS_COMMON_RADIX_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace igs {

/** Widest digit a single counting pass handles. */
inline constexpr std::uint32_t kMaxRadixBits = 16;
/** Floor of widest_radix_bits: fewer than 256 keys may still take an
 *  8-bit digit (a 256-bucket row is cheap next to an extra pass). */
inline constexpr std::uint32_t kMinRadixBits = 8;

/** Digit plan of one radix sort: `passes` stable passes of `bits` each. */
struct RadixPlan {
    std::uint32_t bits = kMaxRadixBits;
    std::uint32_t passes = 1;

    std::size_t buckets() const { return std::size_t{1} << bits; }
    std::uint32_t mask() const { return (1u << bits) - 1u; }
};

/**
 * Widest digit for `n` keys: the widest whose 2^bits buckets do not
 * outnumber the keys, within [kMinRadixBits, kMaxRadixBits].
 */
inline std::uint32_t
widest_radix_bits(std::size_t n)
{
    const auto log2_n =
        n == 0 ? 0u : static_cast<std::uint32_t>(std::bit_width(n) - 1);
    return std::clamp(log2_n, kMinRadixBits, kMaxRadixBits);
}

/**
 * Pick a digit plan for sorting `n` keys in [0, max_key]: the fewest
 * passes the key range needs at the widest digit `n` affords
 * (widest_radix_bits), then the narrowest digit that covers the range in
 * that many passes.
 *
 * Every pass reads and scatters all `n` keys, so the pass count is the
 * O(n) cost; every pass also clears and prefix-sums one histogram row of
 * 2^bits buckets per worker, which the narrowest digit keeps small.  For
 * 18-bit keys from 1,024 keys up that is two 9-bit passes (512 buckets),
 * where a fixed 16-bit digit clears 65,536 buckets per pass; for 20-bit
 * keys from 1,024 keys up, two 10-bit passes.  The host path sweep
 * (bench_micro_reorder, EXPERIMENTS.md) chose the rule.
 */
inline RadixPlan
plan_radix(std::size_t n, std::uint32_t max_key)
{
    const std::uint32_t widest = widest_radix_bits(n);
    const std::uint32_t key_bits =
        max_key == 0 ? 1u : static_cast<std::uint32_t>(std::bit_width(max_key));
    RadixPlan plan;
    plan.passes = (key_bits + widest - 1) / widest;
    plan.bits = (key_bits + plan.passes - 1) / plan.passes;
    return plan;
}

/**
 * Turn per-worker bucket counts into exclusive scatter offsets, in place.
 *
 * `hist` holds `workers` rows of `stride` counters; only the first
 * `buckets_used` buckets of each row are touched.  After the call,
 * `hist[w * stride + b]` is the output index where worker `w` places its
 * first element of bucket `b`; the bucket-major / worker-minor visit order
 * is what makes the enclosing counting pass stable.  Returns the total
 * element count (== n of the pass).
 */
inline std::size_t
radix_exclusive_offsets(std::uint32_t* hist, std::size_t workers,
                        std::size_t stride, std::size_t buckets_used)
{
    std::size_t running = 0;
    for (std::size_t b = 0; b < buckets_used; ++b) {
        for (std::size_t w = 0; w < workers; ++w) {
            const std::uint32_t count = hist[w * stride + b];
            hist[w * stride + b] = static_cast<std::uint32_t>(running);
            running += count;
        }
    }
    return running;
}

} // namespace igs

#endif // IGS_COMMON_RADIX_H
