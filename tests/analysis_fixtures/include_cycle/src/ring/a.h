// Fixture: a.h <-> b.h form an include cycle.
#ifndef IGS_RING_A_H
#define IGS_RING_A_H

#include "ring/b.h"

struct NodeA {
    int value;
};

#endif // IGS_RING_A_H
