// Fixture helpers reached from the hot_kernel root: one allocates,
// one takes a blocking lock, one throws.
#ifndef IGS_M_HELPERS_H
#define IGS_M_HELPERS_H

inline void
helper_append(Buffer& buf)
{
    buf.items.push_back(1);
}

inline void
helper_block(Buffer& buf)
{
    MutexLock lock(buf.mu);
    buf.blocked += 1;
}

inline void
helper_throw(Buffer& buf)
{
    if (buf.items_used > buf.items_cap) {
        throw BufferOverflow{};
    }
}

#endif // IGS_M_HELPERS_H
