// Semantic fixture: the backend's engine surface and its declared
// capability come from a base class template, so the contract holds.
#ifndef IGS_GRAPH_MINI_STORE_H
#define IGS_GRAPH_MINI_STORE_H
#include <vector>
namespace app {

template <typename Set>
class VertexTable {
  public:
    void ensure_vertices(int n) { rows_.resize(n); }
    int degree(int v) const { return rows_[v]; }
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
