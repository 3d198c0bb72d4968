/**
 * @file
 * Pending compute-phase work, accumulated per batch and handed off per
 * epoch.
 *
 * The engines (core::RealTimeEngine, sim::SimEngine) record every batch
 * into a PendingAccumulator; when a compute round is due (immediately, or
 * after OCA aggregates two batches) the accumulated work is handed off as
 * one @ref PendingWork stamped with the epoch of the snapshot it belongs
 * to (DESIGN.md §11).  Incremental algorithms consume the dirty-vertex and
 * edge-delta lists; the engine's snapshot publication consumes `affected`
 * as its copy-on-publish dirty set.
 *
 * The dirty set is kept as a bitmap with one bit per vertex id, so noting
 * an endpoint is one OR and the hand-off reads the set out in ascending
 * order by scanning the bitmap's words — O(V/64 + |affected|), with no
 * sort.  Reordered and baseline batches take the same path.
 *
 * Lives in stream/ (not core/) because the accumulation is a property of
 * the input stream, not of the decision logic — and the sim layer needs it
 * without dragging in core's controllers.  Layer rule: stream/ includes
 * only common/ (tools/layers.toml).
 */
#ifndef IGS_STREAM_PENDING_H
#define IGS_STREAM_PENDING_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "stream/batch.h"

namespace igs::stream {

/** Batch-span work handed to the compute phase. */
struct PendingWork {
    /** Vertices touched since the last compute round, ascending and
     *  unique. */
    std::vector<VertexId> affected;
    /** Edge modifications since the last compute round. */
    std::vector<StreamEdge> inserted;
    std::vector<StreamEdge> deleted;
    /** How many batches this round aggregates (1 normally, 2 under OCA). */
    std::uint32_t batches = 0;
    /** Epoch of the snapshot this work was published against (0 when the
     *  caller uses the legacy epochless @ref PendingAccumulator::take). */
    EpochId epoch = 0;
};

/** Accumulates compute-phase work across (possibly aggregated) batches.
 *  Named note_batch (not add) so the whole-program analyzer's simple-name
 *  call graph keeps it distinct from the hot-path add() entry points. */
class PendingAccumulator {
  public:
    void
    note_batch(const EdgeBatch& batch)
    {
        // Counted in a local: the member is a size_t, which may alias the
        // bitmap's words, so counting in it would reload it every mark.
        std::size_t marked = marked_;
        for (const StreamEdge& e : batch.edges()) {
            marked += mark(e.src);
            marked += mark(e.dst);
            if (e.is_delete) {
                // Within the capacity hand_off reserved, unless this
                // window outgrows the last one.  igs-lint: allow(hot-path-alloc)
                deleted_.push_back(e);
            } else {
                // As above.  igs-lint: allow(hot-path-alloc)
                inserted_.push_back(e);
            }
        }
        marked_ = marked;
        ++batches_;
    }

    /**
     * Hand the accumulated work to the compute phase, stamped with the
     * epoch it was published under.  `affected` is ascending and unique
     * (the bitmap read out word by word, each word cleared as it is
     * read), so snapshot publication visits each dirty vertex once.  The
     * accumulator resets and its bitmap is reused.
     */
    PendingWork
    hand_off(EpochId epoch)
    {
        PendingWork w;
        // One exact-size allocation per hand-off: the list leaves with
        // the PendingWork.  igs-lint: allow(hot-path-alloc)
        w.affected.resize(marked_);
        // Stops after the word holding the highest set bit.
        std::size_t k = 0;
        for (std::size_t i = 0; k < marked_; ++i) {
            std::uint64_t word = words_[i];
            if (word == 0) {
                continue;
            }
            words_[i] = 0;
            const auto base = static_cast<VertexId>(i * kWordBits);
            while (word != 0) {
                w.affected[k++] =
                    base + static_cast<VertexId>(std::countr_zero(word));
                word &= word - 1;
            }
        }
        marked_ = 0;
        w.inserted = std::move(inserted_);
        w.deleted = std::move(deleted_);
        w.batches = batches_;
        w.epoch = epoch;
        inserted_.clear();
        deleted_.clear();
        // Size the next window's lists like this one's, so note_batch
        // appends without a chain of reallocations.
        // igs-lint: allow(hot-path-alloc)
        inserted_.reserve(w.inserted.size());
        // igs-lint: allow(hot-path-alloc)
        deleted_.reserve(w.deleted.size());
        batches_ = 0;
        return w;
    }

    /** Legacy epochless hand-off (pre-pipeline callers). */
    PendingWork take() { return hand_off(0); }

    std::uint32_t pending_batches() const { return batches_; }
    bool empty() const { return batches_ == 0; }

  private:
    static constexpr std::size_t kWordBits = 64;

    /** Set `v`'s bit, growing the bitmap to cover it; 1 if it was
     *  clear. */
    std::size_t
    mark(VertexId v)
    {
        const std::size_t i = v / kWordBits;
        if (i >= words_.size()) {
            // Vertex-space growth: std::vector grows geometrically, and
            // the bitmap is kept across hand-offs, so it reallocates
            // O(log V) times per stream.  igs-lint: allow(hot-path-alloc)
            words_.resize(i + 1);
        }
        const std::uint64_t bit = std::uint64_t{1} << (v % kWordBits);
        const std::uint64_t word = words_[i];
        words_[i] = word | bit;
        return (word & bit) == 0 ? 1 : 0;
    }

    /** Dirty set since the last hand-off: bit v%64 of word v/64. */
    std::vector<std::uint64_t> words_;
    /** Bits set in words_ (the size of the next `affected`). */
    std::size_t marked_ = 0;
    std::vector<StreamEdge> inserted_;
    std::vector<StreamEdge> deleted_;
    std::uint32_t batches_ = 0;
};

} // namespace igs::stream

#endif // IGS_STREAM_PENDING_H
