// Fixture: several allow() pragmas on one comment line.  Every one
// counts: the first comment below suppresses both findings on the line
// under it; the second pragma of the last comment suppresses nothing
// and alone is stale.  Prose quoting `igs-lint: allow(bare-mutex)` is
// not a pragma.
#include <mutex>
#include <vector>

void
fill(std::vector<int>& v)
{
    // igs-lint: allow(bare-mutex) igs-lint: allow(hot-path-block)
    std::mutex m;
    // igs-lint: allow(hot-path-alloc) igs-lint: allow(bare-mutex)
    v.push_back(1);
}
