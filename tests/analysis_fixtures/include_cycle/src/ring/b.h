// Fixture: a.h <-> b.h form an include cycle.
#ifndef IGS_RING_B_H
#define IGS_RING_B_H

#include "ring/a.h"

struct NodeB {
    int value;
};

#endif // IGS_RING_B_H
