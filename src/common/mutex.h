/**
 * @file
 * Annotated mutex wrapper and RAII guard.
 *
 * libstdc++'s std::mutex carries no capability attributes, so clang's
 * thread-safety analysis cannot see std::lock_guard acquisitions of it.
 * igs::Mutex wraps std::mutex with IGS_CAPABILITY annotations and
 * igs::MutexLock is the annotated scoped guard; MutexLock::native() exposes
 * the underlying std::unique_lock for condition-variable waits (the wait's
 * internal unlock/relock is invisible to the analysis, which is sound: the
 * capability is re-held whenever control returns to the caller).
 *
 * Repo rule (enforced by tools/igs_analyze.py, rule `bare-mutex`): outside
 * src/common/, blocking synchronization uses igs::Mutex or igs::Spinlock,
 * never a bare std::mutex — so every lock in the system is visible to the
 * thread-safety analysis.
 */
#ifndef IGS_COMMON_MUTEX_H
#define IGS_COMMON_MUTEX_H

#include <mutex>

#include "common/annotations.h"

namespace igs {

/** Annotated exclusive mutex (wraps std::mutex). */
class IGS_CAPABILITY("mutex") Mutex {
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() IGS_ACQUIRE() { m_.lock(); }
    void unlock() IGS_RELEASE() { m_.unlock(); }
    bool try_lock() IGS_TRY_ACQUIRE(true) { return m_.try_lock(); }

    /** The wrapped mutex, for std::condition_variable plumbing only. */
    std::mutex& native() { return m_; }

  private:
    std::mutex m_;
};

/**
 * Scoped guard holding an igs::Mutex for its lifetime.  Condition-variable
 * users pass `native()` to std::condition_variable::wait and re-check their
 * predicate in an explicit loop in the guarded scope (see ThreadPool), which
 * keeps every guarded access visible to the analysis.
 */
class IGS_SCOPED_CAPABILITY MutexLock {
  public:
    explicit MutexLock(Mutex& mu) IGS_ACQUIRE(mu) : lk_(mu.native()) {}
    ~MutexLock() IGS_RELEASE() = default;

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

    /** The live std::unique_lock, for condition-variable waits. */
    std::unique_lock<std::mutex>& native() { return lk_; }

  private:
    std::unique_lock<std::mutex> lk_;
};

} // namespace igs

#endif // IGS_COMMON_MUTEX_H
