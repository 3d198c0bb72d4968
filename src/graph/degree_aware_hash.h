/**
 * @file
 * Degree-Aware Hashing (DAH) dynamic graph structure.
 *
 * The alternative SAGA-Bench structure the paper compares against in
 * §6.2.3: low-degree vertices keep a plain edge array (cache-friendly, no
 * hashing overhead); once a vertex's degree crosses a threshold its edge set
 * is migrated into an open-addressed hash table so duplicate checks become
 * O(1) instead of an O(degree) scan.
 *
 * The vertex table around the edge sets — locks, latest_bid, epoch,
 * change marks — is the one every store shares
 * (graph/live_store.h), and so are the engine-wide update semantics
 * (weight accumulation on duplicates, insertions before deletions).
 */
#ifndef IGS_GRAPH_DEGREE_AWARE_HASH_H
#define IGS_GRAPH_DEGREE_AWARE_HASH_H

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/types.h"
#include "graph/live_store.h"
#include "graph/store_tuning.h"

namespace igs::graph {

/**
 * Per-vertex edge container that is an array below a degree threshold
 * (StoreTuning::dah_hash_threshold) and an open-addressed hash table
 * above it.  ApplyResult::written_at is a conservative 0 on any write:
 * a hash insert, a backshift deletion or a migration can move any entry
 * of the view's slot-order walk.
 */
class DahEdgeSet {
  public:
    /** See AdjacencyList::apply_insert.  `hash_threshold` is the
     *  array -> hash migration degree for this set. */
    ApplyResult insert(Neighbor nbr, std::uint32_t hash_threshold);
    /** See AdjacencyList::apply_remove. */
    ApplyResult remove(VertexId nbr_id);

    std::uint32_t size() const { return count_; }
    bool hashed() const { return !table_.empty(); }

  private:
    struct Slot {
        VertexId id = kInvalidVertex;
        Weight weight = 0.0f;
    };

  public:
    /**
     * Forward iterator over the stored neighbors, representation-blind:
     * walks the plain array below the migration threshold and skips the
     * empty slots of the open-addressed table above it.  Dereference
     * yields @ref Neighbor by value (hash slots store id/weight in a
     * different layout, so there is no Neighbor lvalue to point at).
     */
    class ConstIterator {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Neighbor;
        using difference_type = std::ptrdiff_t;

        ConstIterator() = default;

        Neighbor
        operator*() const
        {
            return array_ != nullptr ? *array_
                                     : Neighbor{slot_->id, slot_->weight};
        }

        ConstIterator&
        operator++()
        {
            if (array_ != nullptr) {
                ++array_;
            } else {
                ++slot_;
                skip_empty();
            }
            return *this;
        }

        ConstIterator
        operator++(int)
        {
            ConstIterator tmp = *this;
            ++*this;
            return tmp;
        }

        friend bool operator==(const ConstIterator&,
                               const ConstIterator&) = default;

      private:
        friend class DahEdgeSet;
        ConstIterator(const Neighbor* array, const Slot* slot,
                      const Slot* slot_end)
            : array_(array), slot_(slot), slot_end_(slot_end)
        {
            skip_empty();
        }

        void
        skip_empty()
        {
            while (slot_ != slot_end_ && slot_->id == kInvalidVertex) {
                ++slot_;
            }
        }

        const Neighbor* array_ = nullptr;
        const Slot* slot_ = nullptr;
        const Slot* slot_end_ = nullptr;
    };

    /** Iterable view of the set (graph::GraphReadPath `edges` range). */
    class View {
      public:
        ConstIterator begin() const { return begin_; }
        ConstIterator end() const { return end_; }

      private:
        friend class DahEdgeSet;
        View(ConstIterator begin, ConstIterator end)
            : begin_(begin), end_(end)
        {
        }

        ConstIterator begin_;
        ConstIterator end_;
    };

    /** View of the live representation; invalidated by insert/remove. */
    View
    view() const
    {
        if (table_.empty()) {
            const Neighbor* a = array_.data();
            return View(ConstIterator(a, nullptr, nullptr),
                        ConstIterator(a + array_.size(), nullptr, nullptr));
        }
        const Slot* s = table_.data();
        const Slot* e = s + table_.size();
        return View(ConstIterator(nullptr, s, e),
                    ConstIterator(nullptr, e, e));
    }

  private:
    void migrate_to_hash();
    void grow_table();
    ApplyResult hash_insert(Neighbor nbr);

    static std::uint64_t
    hash_id(VertexId id)
    {
        std::uint64_t x = id;
        x ^= x >> 16;
        x *= 0x7feb352dull;
        x ^= x >> 15;
        x *= 0x846ca68bull;
        x ^= x >> 16;
        return x;
    }

    std::vector<Neighbor> array_;
    std::vector<Slot> table_; // empty until migrated
    std::uint32_t count_ = 0;
};

/** Dynamic directed graph with degree-aware hashed edge sets.  Its
 *  `edges()` range is unordered — hashed vertices yield slot order —
 *  matching the unordered-adjacency contract of the other stores. */
class DegreeAwareHash : public LiveStore<DahEdgeSet> {
  public:
    explicit DegreeAwareHash(std::size_t num_vertices = 0,
                             const StoreTuning& tuning = {})
        : LiveStore(num_vertices), tuning_(tuning)
    {
    }

    /** Replace the migration threshold (affects future inserts only). */
    void set_tuning(const StoreTuning& tuning) { tuning_ = tuning; }
    const StoreTuning& tuning() const { return tuning_; }

    ApplyResult apply_insert(VertexId v, Neighbor nbr, Direction dir);
    ApplyResult apply_remove(VertexId v, VertexId nbr_id, Direction dir);

  private:
    StoreTuning tuning_;
};

} // namespace igs::graph

#endif // IGS_GRAPH_DEGREE_AWARE_HASH_H
