// Fixture: a bottom-layer module reaching up into core/ must be
// reported as layer-inversion (tools/igs_analyze.py --self-test).
#ifndef IGS_COMMON_BAD_LAYER_H
#define IGS_COMMON_BAD_LAYER_H

#include "core/api.h"

inline int
doubled_answer()
{
    return core_answer() * 2;
}

#endif // IGS_COMMON_BAD_LAYER_H
