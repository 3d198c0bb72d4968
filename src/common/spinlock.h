/**
 * @file
 * Small synchronization primitives used by the update executors.
 *
 * The baseline (non-reordered) update path takes one of these per vertex
 * while mutating that vertex's edge data — exactly the lock the paper's RO
 * technique exists to eliminate.
 *
 * Spinlock is an annotated capability (see annotations.h): clang's
 * thread-safety analysis tracks lock()/try_lock()/unlock() pairing and
 * IGS_GUARDED_BY members.  In debug builds (!NDEBUG) the lock additionally
 * records its owning thread so unlock-by-non-owner — double unlock, or
 * unlocking a lock someone else holds — trips IGS_CHECK instead of silently
 * corrupting the edge arrays it protects.
 */
#ifndef IGS_COMMON_SPINLOCK_H
#define IGS_COMMON_SPINLOCK_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/annotations.h"
#include "common/check.h"

#ifndef NDEBUG
#include <thread>
#endif

namespace igs {

#ifndef NDEBUG
namespace detail {
/** Nonzero id of the calling thread (debug owner bookkeeping). */
inline std::uint64_t
debug_thread_id()
{
    static thread_local const std::uint64_t id =
        (std::hash<std::thread::id>{}(std::this_thread::get_id()) << 1) | 1u;
    return id;
}
} // namespace detail
#endif

/** Test-and-test-and-set spinlock; satisfies BasicLockable. */
class IGS_CAPABILITY("spinlock") Spinlock {
  public:
    Spinlock() = default;
    Spinlock(const Spinlock&) = delete;
    Spinlock& operator=(const Spinlock&) = delete;

    void
    lock() IGS_ACQUIRE()
    {
        while (true) {
            if (!flag_.exchange(true, std::memory_order_acquire)) {
                note_acquired();
                return;
            }
            while (flag_.load(std::memory_order_relaxed)) {
                // spin
            }
        }
    }

    bool
    try_lock() IGS_TRY_ACQUIRE(true)
    {
        const bool acquired =
            !flag_.load(std::memory_order_relaxed) &&
            !flag_.exchange(true, std::memory_order_acquire);
        if (acquired) {
            note_acquired();
        }
        return acquired;
    }

    void
    unlock() IGS_RELEASE()
    {
        note_released();
        flag_.store(false, std::memory_order_release);
    }

  private:
#ifndef NDEBUG
    void
    note_acquired()
    {
        owner_.store(detail::debug_thread_id(), std::memory_order_relaxed);
    }

    void
    note_released()
    {
        IGS_CHECK_MSG(owner_.load(std::memory_order_relaxed) ==
                          detail::debug_thread_id(),
                      "Spinlock::unlock by non-owner (double unlock?)");
        owner_.store(0, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> owner_{0};
#else
    void note_acquired() {}
    void note_released() {}
#endif

    std::atomic<bool> flag_{false};
};

/** Scoped guard for a Spinlock (annotation-visible lock_guard). */
class IGS_SCOPED_CAPABILITY SpinlockGuard {
  public:
    explicit SpinlockGuard(Spinlock& lock) IGS_ACQUIRE(lock) : lock_(lock)
    {
        lock_.lock();
    }

    ~SpinlockGuard() IGS_RELEASE() { lock_.unlock(); }

    SpinlockGuard(const SpinlockGuard&) = delete;
    SpinlockGuard& operator=(const SpinlockGuard&) = delete;

  private:
    Spinlock& lock_;
};

/**
 * A fixed-size array of spinlocks (per-vertex/per-direction lock tables in
 * the graph structures).  Replacing the array wholesale via resize() is only
 * legal while no lock is held — the graphs do so between batches.
 */
class SpinlockArray {
  public:
    SpinlockArray() = default;
    explicit SpinlockArray(std::size_t n) { resize(n); }

    SpinlockArray(SpinlockArray&&) noexcept = default;
    SpinlockArray& operator=(SpinlockArray&&) noexcept = default;

    /**
     * Replace the table with `n` fresh (unlocked) locks.  Single-threaded
     * only: every lock must be free, or waiters on the old table would spin
     * on a lock nobody can ever release.
     */
    void
    resize(std::size_t n)
    {
        locks_ = n != 0 ? std::make_unique<Spinlock[]>(n) : nullptr;
        size_ = n;
    }

    Spinlock&
    operator[](std::size_t i)
    {
        IGS_DCHECK(i < size_);
        return locks_[i];
    }

    std::size_t size() const { return size_; }

  private:
    std::unique_ptr<Spinlock[]> locks_;
    std::size_t size_ = 0;
};

} // namespace igs

#endif // IGS_COMMON_SPINLOCK_H
