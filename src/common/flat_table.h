/**
 * @file
 * Reusable open-addressing vertex -> weight table for USC run coalescing.
 *
 * The USC kernel's per-run table, for the real engine and the simulator
 * alike: one table per pool worker lives in an engine-owned arena and is
 * recycled across runs and batches, so steady-state coalescing performs no
 * heap allocations.  Resets are O(live entries) via epoch stamping (slots
 * from older epochs read as empty), and iteration is O(live entries) in
 * insertion order via a side list of slot indices — which also makes the
 * appended-remainder order deterministic, unlike `std::unordered_map`.
 *
 * As a `file:*` hot-path root in tools/layers.toml, this file is held by
 * tools/igs_analyze.py to its zero-allocation guarantee: growth is legal only
 * at the audited pragma'd sites (first encounter with a larger run).
 */
#ifndef IGS_COMMON_FLAT_TABLE_H
#define IGS_COMMON_FLAT_TABLE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.h"

namespace igs {

/**
 * Open-addressing VertexId -> Weight accumulator with O(1) reuse.  On a
 * 64-byte line of its own: the engine keeps one table per pool worker side
 * by side (UscScratch), and every run writes its table's epoch and entry
 * list while the neighbouring worker reads its own slot pointer.
 */
class alignas(64) FlatWeightTable {
  public:
    /**
     * Prepare the table for a run of up to `expected` insertions: bumps the
     * epoch (logically clearing the table) and grows the slot array to keep
     * the load factor at most 1/2.  Allocation only happens when `expected`
     * exceeds every previous run's size — steady state is allocation-free.
     */
    void
    reset(std::size_t expected)
    {
        std::size_t needed = 16;
        while (needed < expected * 2) {
            needed <<= 1;
        }
        if (needed > slots_.size()) {
            slots_.clear();
            // Grows only past the largest run ever seen; steady state
            // never enters this branch.
            slots_.resize(needed); // igs-lint: allow(hot-path-alloc)
            entries_.reserve(needed / 2); // igs-lint: allow(hot-path-alloc)
            epoch_ = 0;
        }
        if (++epoch_ == 0) { // epoch wrapped: old stamps ambiguous, wipe
            std::memset(slots_.data(), 0, slots_.size() * sizeof(Slot));
            epoch_ = 1;
        }
        entries_.clear();
        live_adjust_ = 0;
    }

    /** Accumulate `w` into `key`'s entry, inserting it if absent. */
    void
    add(VertexId key, Weight w)
    {
        Slot& s = slots_[probe(key)];
        if (s.epoch != epoch_) {
            s = Slot{key, epoch_, w, false};
            // igs-lint: allow(hot-path-alloc) capacity reserved by reset()
            entries_.push_back(static_cast<std::uint32_t>(&s - slots_.data()));
        } else {
            s.weight += w;
        }
    }

    /**
     * If `key` is live, remove it and store its weight in `*out`,
     * returning true (USC's matched-during-scan case).  Named drain (not
     * take) so the analyzer's simple-name call graph keeps it distinct
     * from the generators' batch-materializing take().
     */
    bool
    drain(VertexId key, Weight* out)
    {
        Slot& s = slots_[probe(key)];
        if (s.epoch != epoch_ || s.dead) {
            return false;
        }
        s.dead = true;
        *out = s.weight;
        --live_adjust_; // entries_ keeps the slot; size() compensates
        return true;
    }

    /** Live entries (insertions minus takes) this epoch. */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>(entries_.size()) + live_adjust_);
    }

    bool empty() const { return size() == 0; }

    /** Visit live entries in insertion order: fn(key, weight). */
    template <typename F>
    void
    for_each(F&& fn) const
    {
        for (const std::uint32_t idx : entries_) {
            const Slot& s = slots_[idx];
            if (!s.dead) {
                fn(s.key, s.weight);
            }
        }
    }

  private:
    // Trivial on purpose: slots_.resize() zero-fills and the epoch-wrap
    // reset memsets; epoch 0 is never a live epoch, so all-zero == empty.
    struct Slot {
        VertexId key;
        std::uint32_t epoch;
        Weight weight;
        bool dead;
    };

    /** Index of `key`'s slot: its live slot, or the free slot to claim. */
    std::size_t
    probe(VertexId key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = (static_cast<std::size_t>(key) * 0x9E3779B9u) & mask;
        while (slots_[i].epoch == epoch_ && slots_[i].key != key) {
            i = (i + 1) & mask;
        }
        return i;
    }

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> entries_;
    std::uint32_t epoch_ = 0;
    std::ptrdiff_t live_adjust_ = 0;
};

} // namespace igs

#endif // IGS_COMMON_FLAT_TABLE_H
