// Lint fixture: side effects inside IGS_CHECK must be flagged.
// Never compiled; scanned only by `igs_analyze.py --self-test`.
#include <vector>

#define IGS_CHECK(cond) ((void)(cond))
#define IGS_DCHECK(cond) ((void)(cond))

void
bad_check(std::vector<int>& v, int i)
{
    IGS_CHECK(++i < 10);       // flagged: increment inside check
    IGS_DCHECK(v.size() == 1); // fine: pure read
    IGS_DCHECK((i = 5));       // flagged: assignment inside check
}
