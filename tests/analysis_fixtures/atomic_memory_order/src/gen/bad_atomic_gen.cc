// Lint fixture: the atomic-memory-order rule covers all of src/,
// including src/gen (generator progress counters are shared with the
// driver thread).  Never compiled; scanned by `igs_analyze.py --self-test`.
#include <atomic>
#include <cstdint>

std::uint64_t
bad_atomic_gen(std::atomic<std::uint64_t>& emitted)
{
    emitted.fetch_add(1);                                // flagged
    emitted.store(0, std::memory_order_relaxed);         // fine
    return emitted.load(std::memory_order_relaxed);      // fine
}
