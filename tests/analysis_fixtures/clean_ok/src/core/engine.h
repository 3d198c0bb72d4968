#ifndef IGS_CORE_ENGINE_H
#define IGS_CORE_ENGINE_H
#include <atomic>
#include <thread>

#include "graph/mini_store.h"

namespace app {

struct SnapshotView {
    int degree(int v) const { return v; }
};

template <class Graph>
class MiniEngine {
  public:
    template <class Fn>
    void set_compute(Fn fn) { (void)fn; }

    void publish_epoch() {
        done_.store(false, std::memory_order_release);
        worker_ = std::thread([this]() {
            SnapshotView snap;
            sink(snap.degree(1));
            done_.store(true, std::memory_order_release);
        });
    }

    void join_round() {
        while (!done_.load(std::memory_order_acquire)) {
        }
        worker_.join();
    }

  private:
    static void sink(int) {}

    Graph graph_;
    std::thread worker_;
    std::atomic<bool> done_{false};
};

template class MiniEngine<MiniStore>;

} // namespace app

#endif // IGS_CORE_ENGINE_H
