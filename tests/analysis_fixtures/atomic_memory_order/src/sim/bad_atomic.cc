// Lint fixture: implicit-seq_cst atomics in src/sim must be flagged.
// Never compiled; scanned only by `igs_analyze.py --self-test`.
#include <atomic>
#include <cstdint>

std::uint64_t
bad_atomic(std::atomic<std::uint64_t>& counter)
{
    counter.fetch_add(1);                                // flagged
    counter.store(7);                                    // flagged
    counter.fetch_sub(1, std::memory_order_relaxed);     // fine
    return counter.load();                               // flagged
}
