// Fixture: the allow(lock-order-cycle) pragma below suppresses nothing
// and must be reported as stale-suppression.  The allow(hot-path-alloc)
// pragma sits on a live allocation site that the file:* hot-path root
// in layers.toml reaches, so it suppresses a finding and must NOT be
// reported.

int counter_value = 0; // igs-lint: allow(lock-order-cycle)

void
grow(Buffer& buf)
{
    // igs-lint: allow(hot-path-alloc) -- grow-only fixture append
    buf.items.push_back(1);
}
