#include "host.h"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

double
process_cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::uint64_t
steal_ticks()
{
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line)) {
        return 0;
    }
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::istringstream fields(line);
    std::string label;
    std::uint64_t v[8] = {};
    fields >> label;
    for (std::uint64_t& x : v) {
        fields >> x;
    }
    return fields ? v[7] : 0;
}

double
load_average()
{
    std::ifstream in("/proc/loadavg");
    double one = -1.0;
    in >> one;
    return in ? one : -1.0;
}

double
memory_walk_ms()
{
    // A single-cycle permutation (Sattolo's algorithm with a fixed LCG), so
    // the walk visits every slot and no hardware prefetcher can follow it.
    constexpr std::size_t kSlots = (32u << 20) / sizeof(std::uint32_t);
    constexpr std::size_t kSteps = 1'000'000;
    std::vector<std::uint32_t> next(kSlots);
    std::iota(next.begin(), next.end(), 0u);
    std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t j = static_cast<std::size_t>((lcg >> 33) % i);
        std::swap(next[i], next[j]);
    }
    const auto start = std::chrono::steady_clock::now();
    std::uint32_t at = 0;
    for (std::size_t s = 0; s < kSteps; ++s) {
        at = next[at];
    }
    const auto end = std::chrono::steady_clock::now();
    // Keep the walk observable so it is not optimized away.
    volatile std::uint32_t sink = at;
    (void)sink;
    return std::chrono::duration<double, std::milli>(end - start).count();
}

} // namespace perfbench
