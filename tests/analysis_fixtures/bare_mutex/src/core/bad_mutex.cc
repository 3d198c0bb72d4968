// Lint fixture: bare std::mutex outside src/common/ must be flagged.
// Never compiled; scanned only by `igs_analyze.py --self-test`.
#include <mutex>

struct BadEngineState {
    std::mutex m; // flagged: bare-mutex (should be igs::Mutex)
};

void
bad_mutex_use(BadEngineState& s)
{
    std::lock_guard lk(s.m);
}
