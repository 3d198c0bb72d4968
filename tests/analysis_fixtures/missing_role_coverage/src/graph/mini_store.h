#ifndef IGS_GRAPH_MINI_STORE_H
#define IGS_GRAPH_MINI_STORE_H
namespace app {

struct MiniStore {
    int edges(int v) const { return v; }
};

} // namespace app

#endif // IGS_GRAPH_MINI_STORE_H
