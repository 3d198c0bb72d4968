/**
 * @file
 * Process resource usage and host-drift diagnostics.  Diagnostics are
 * printed beside the metrics so that a slow host shows in the data instead
 * of passing for a regression; they are not metrics.
 */
#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstdint>

namespace perfbench {

/** User plus system CPU seconds of this process so far. */
double process_cpu_seconds();

/** Peak resident set size of this process, in MB. */
double peak_rss_mb();

/** Steal ticks of all CPUs since boot (/proc/stat), or 0 if unreadable. */
std::uint64_t steal_ticks();

/** One-minute load average (/proc/loadavg), or -1 if unreadable. */
double load_average();

/**
 * Milliseconds taken by a fixed random walk over a 32 MB buffer: the same
 * work on every call, so its time tracks the host's memory latency.
 */
double memory_walk_ms();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
