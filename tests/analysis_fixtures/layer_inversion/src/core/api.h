// Fixture upper-layer header; clean on its own.
#ifndef IGS_CORE_API_H
#define IGS_CORE_API_H

inline int
core_answer()
{
    return 42;
}

#endif // IGS_CORE_API_H
