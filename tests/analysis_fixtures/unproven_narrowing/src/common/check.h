#ifndef IGS_COMMON_CHECK_H
#define IGS_COMMON_CHECK_H
#define IGS_CHECK(cond) \
    do { \
        if (!(cond)) { \
            __builtin_trap(); \
        } \
    } while (0)

#endif // IGS_COMMON_CHECK_H
