// Semantic fixture: MiniStore inherits apply_renumber, so the probe holds
// and the allocating else-branch is never instantiated for it.
#ifndef IGS_STREAM_KERNEL_H
#define IGS_STREAM_KERNEL_H
#include <vector>
namespace app {

template <typename Graph>
void
apply_batch(Graph& g, std::vector<int>& log, int v)
{
    g.apply_insert(v);
    if constexpr (requires { g.apply_renumber(v); }) {
        g.apply_renumber(v);
    } else {
        log.push_back(g.degree(v));
    }
}

} // namespace app
#endif // IGS_STREAM_KERNEL_H
