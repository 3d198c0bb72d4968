#ifndef IGS_CORE_ENGINE_H
#define IGS_CORE_ENGINE_H
#include "graph/mini_store.h"
#include "graph/other_store.h"

namespace app {

template <class Graph>
class MiniEngine {
  public:
    int tick() { return graph_.edges(0); }

  private:
    Graph graph_;
};

// Only MiniStore is bound; OtherStore stays outside the role proof.
template class MiniEngine<MiniStore>;

} // namespace app

#endif // IGS_CORE_ENGINE_H
