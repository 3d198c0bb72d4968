// Lint fixture: parent-relative and unresolvable includes must be flagged.
// Never compiled; scanned only by `igs_analyze.py --self-test`.
#include "../common/check.h"      // flagged: parent-relative path
#include "nonexistent/missing.h"  // flagged: resolves nowhere

void
bad_include()
{
}
