// Semantic fixture: the engine surface is split between a base class
// template and the backend, and neither defines `degree` — the finding
// names the backend, and only the member that is missing from both.
#ifndef IGS_GRAPH_MINI_STORE_H
#define IGS_GRAPH_MINI_STORE_H
#include <vector>
namespace app {

template <typename Set>
class VertexTable {
  public:
    void ensure_vertices(int n) { rows_.resize(n); }
    void apply_renumber(int seed) { (void)seed; }

  protected:
    std::vector<Set> rows_;
};

class MiniStore : public VertexTable<int> {
  public:
    void apply_insert(int v) { ++rows_[v]; }
};

} // namespace app
#endif // IGS_GRAPH_MINI_STORE_H
