#ifndef IGS_CORE_ONEWAY_H
#define IGS_CORE_ONEWAY_H
#include <atomic>

namespace app {

class OneWay {
  public:
    void signal() {
        flag_.store(true, std::memory_order_release);
    }

    bool peek() const {
        return flag_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> flag_{false};
};

} // namespace app

#endif // IGS_CORE_ONEWAY_H
