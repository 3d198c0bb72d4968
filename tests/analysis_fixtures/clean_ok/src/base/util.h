// Fixture lower-layer helper; allocation-, lock- and throw-free.
#ifndef IGS_BASE_UTIL_H
#define IGS_BASE_UTIL_H

inline void
bump(Table& t)
{
    t.count += 1;
}

#endif // IGS_BASE_UTIL_H
