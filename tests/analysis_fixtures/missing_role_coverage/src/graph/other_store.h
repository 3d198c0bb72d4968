#ifndef IGS_GRAPH_OTHER_STORE_H
#define IGS_GRAPH_OTHER_STORE_H
namespace app {

struct OtherStore {
    int edges(int v) const { return v + 1; }
};

} // namespace app

#endif // IGS_GRAPH_OTHER_STORE_H
