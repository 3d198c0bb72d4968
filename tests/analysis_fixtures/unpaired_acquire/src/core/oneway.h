#ifndef IGS_CORE_ONEWAY_H
#define IGS_CORE_ONEWAY_H
#include <atomic>

namespace app {
class Gate {
  public:
    bool ready() const {
        return flag_.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> flag_{false};
};
} // namespace app

#endif // IGS_CORE_ONEWAY_H
