#ifndef IGS_GRAPH_MINI_STORE_H
#define IGS_GRAPH_MINI_STORE_H
namespace app {

struct MiniStore {
    void apply_insert(int e) { n_ += e; }
    int edges(int v) const { return n_ + v; }
    int n_ = 0;
};

} // namespace app

#endif // IGS_GRAPH_MINI_STORE_H
