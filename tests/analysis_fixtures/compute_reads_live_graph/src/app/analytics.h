#ifndef IGS_APP_ANALYTICS_H
#define IGS_APP_ANALYTICS_H
#include <thread>

#include "graph/mini_store.h"

namespace app {

template <class Graph>
class MiniEngine {
  public:
    void publish_epoch() {
        worker_ = std::thread([this]() { run_compute(); });
    }

  private:
    // The compute thread must read the snapshot, not the live store;
    // the backend binding comes from the explicit instantiation below.
    int run_compute() { return graph_.edges(0); }

    Graph graph_;
    std::thread worker_;
};

template class MiniEngine<MiniStore>;

} // namespace app

#endif // IGS_APP_ANALYTICS_H
