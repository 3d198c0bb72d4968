/**
 * Lint fixture: a fully clean header — the self-test asserts no rule fires
 * on it (guards canonical, atomics explicit, not a hot root, std::mutex
 * allowed because the fixture lives under src/common/).
 * Never compiled; scanned only by `igs_analyze.py --self-test`.
 */
#ifndef IGS_COMMON_CLEAN_OK_H
#define IGS_COMMON_CLEAN_OK_H

#include <atomic>
#include <cstdint>
#include <mutex>

namespace igs_fixture {

inline std::uint64_t
clean_read(const std::atomic<std::uint64_t>& a)
{
    return a.load(std::memory_order_acquire);
}

} // namespace igs_fixture

#endif // IGS_COMMON_CLEAN_OK_H
