#ifndef IGS_CORE_FLAG_H
#define IGS_CORE_FLAG_H
#include <atomic>

namespace app {

class EpochFlag {
  public:
    void publish() {
        ready_.store(true, std::memory_order_release);
    }

    bool poll() const {
        return ready_.load(std::memory_order_acquire);
    }

    void reset() {
        ready_.store(false, std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> ready_{false};
};

} // namespace app

#endif // IGS_CORE_FLAG_H
