/**
 * @file
 * Small statistics helpers used by the characterization and bench harnesses
 * (geometric means for speedup aggregation, histograms for degree
 * distributions).
 *
 * Thread-compatibility: these accumulators are deliberately unsynchronized
 * — each harness/worker owns its own instance and merges single-threaded.
 * Sharing one across threads is a bug; shared counters belong on
 * std::atomic with explicit memory_order (cf. stream::OcaProbe), which the
 * TSan leg of tools/check_matrix.sh would catch here.
 */
#ifndef IGS_COMMON_STATS_H
#define IGS_COMMON_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/check.h"

namespace igs {

/** Geometric mean of a set of strictly positive values. */
inline double
geomean(const std::vector<double>& values)
{
    IGS_CHECK(!values.empty());
    double log_sum = 0.0;
    for (double v : values) {
        IGS_CHECK_MSG(v > 0.0, "geomean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double>& values)
{
    IGS_CHECK(!values.empty());
    double s = 0.0;
    for (double v : values) {
        s += v;
    }
    return s / static_cast<double>(values.size());
}

/** Maximum. */
inline double
max_of(const std::vector<double>& values)
{
    IGS_CHECK(!values.empty());
    double m = values.front();
    for (double v : values) {
        m = std::max(m, v);
    }
    return m;
}

/**
 * Sparse integer histogram, e.g. N(k): number of vertices with degree k in
 * an input batch (paper §3.1).
 */
class Histogram {
  public:
    void add(std::uint64_t key, std::uint64_t count = 1) { bins_[key] += count; }

    std::uint64_t
    at(std::uint64_t key) const
    {
        auto it = bins_.find(key);
        return it == bins_.end() ? 0 : it->second;
    }

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (const auto& [k, c] : bins_) {
            t += c;
        }
        return t;
    }

    std::uint64_t
    max_key() const
    {
        return bins_.empty() ? 0 : bins_.rbegin()->first;
    }

    bool empty() const { return bins_.empty(); }

    /** Ordered (key, count) view. */
    const std::map<std::uint64_t, std::uint64_t>& bins() const { return bins_; }

  private:
    std::map<std::uint64_t, std::uint64_t> bins_;
};

} // namespace igs

#endif // IGS_COMMON_STATS_H
