// Fixture: apply_batch is clean itself; detail::grow allocates.
#ifndef IGS_STREAM_KERNEL_H
#define IGS_STREAM_KERNEL_H
#include <vector>

namespace detail {
inline void grow(std::vector<int>& v)
{
    v.push_back(1);
}
} // namespace detail

inline void apply_batch(std::vector<int>& v)
{
    detail::grow(v);
}

#endif // IGS_STREAM_KERNEL_H
