// Semantic fixture: a backend-specific allocation on the hot path —
// only the FancyStore instantiation reaches the allocating branch, so
// the finding must be attributed to FancyStore and not to PlainStore.
#ifndef IGS_APP_KERNEL_H
#define IGS_APP_KERNEL_H
#include <vector>
struct PlainStore {
    std::vector<int>& edges_mut(int v) { (void)v; return edges_; }
    std::vector<int> edges_;
};
struct FancyStore {
    void apply_coalesced(int v) { scratch_.push_back(v); }
    std::vector<int> scratch_;
};
template <typename G> void apply_batch(G& g, int v) {
    if constexpr (requires { g.edges_mut(v); }) {
        g.edges_mut(v).clear();
    } else {
        g.apply_coalesced(v);
    }
}
#endif
