// Lint fixture: every allocation class the hot-path-alloc rule must catch.
// Never compiled; scanned only by `igs_analyze.py --self-test`, whose
// layers.toml makes every function here a hot-path root (file:*).
#include <unordered_map>
#include <vector>

void
bad_hot_alloc(std::vector<int>& v)
{
    std::unordered_map<int, int> table; // flagged: unordered_map
    table[1] = 2;
    int* p = new int(3);  // flagged: new expression
    v.push_back(*p);      // flagged: container growth
    v.resize(128);        // flagged: container growth
    delete p;
    // An audited arena site must NOT be flagged:
    v.reserve(256); // igs-lint: allow(hot-path-alloc) fixture arena
}
