#ifndef IGS_CORE_ENGINE_H
#define IGS_CORE_ENGINE_H
#include <vector>
#include "graph/mini_store.h"
#include "stream/kernel.h"

namespace app {

template <class Graph>
class MiniEngine {
  public:
    void
    ingest(int v)
    {
        graph_.ensure_vertices(v + 1);
        apply_batch(graph_, log_, v);
    }

  private:
    Graph graph_;
    std::vector<int> log_;
};

template class MiniEngine<MiniStore>;

} // namespace app

#endif // IGS_CORE_ENGINE_H
