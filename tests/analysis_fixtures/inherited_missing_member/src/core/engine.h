#ifndef IGS_CORE_ENGINE_H
#define IGS_CORE_ENGINE_H
#include "graph/mini_store.h"

namespace app {

template <class Graph>
class MiniEngine {
  public:
    void ingest(int v) { graph_.ensure_vertices(v + 1); }

  private:
    Graph graph_;
};

template class MiniEngine<MiniStore>;

} // namespace app

#endif // IGS_CORE_ENGINE_H
