// Lint fixture: non-canonical header guard must be flagged
// (canonical for this path is IGS_STREAM_BAD_GUARD_H).
// Never compiled; scanned only by `igs_analyze.py --self-test`.
#ifndef SOME_RANDOM_GUARD_H
#define SOME_RANDOM_GUARD_H

inline int
fixture_fn()
{
    return 42;
}

#endif // SOME_RANDOM_GUARD_H
