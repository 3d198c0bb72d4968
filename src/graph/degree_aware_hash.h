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
 * Same engine-wide update semantics as @ref igs::graph::AdjacencyList
 * (weight accumulation on duplicates, insertions before deletions).
 */
#ifndef IGS_GRAPH_DEGREE_AWARE_HASH_H
#define IGS_GRAPH_DEGREE_AWARE_HASH_H

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "graph/adjacency_list.h"
#include "graph/store_tuning.h"

namespace igs::graph {

/**
 * Per-vertex edge container that is an array below `kHashThreshold` and an
 * open-addressed hash table above it.
 */
class DahEdgeSet {
  public:
    /** Default degree at which a vertex migrates from array to hash
     *  storage; the effective value is runtime-tunable
     *  (StoreTuning::dah_hash_threshold, same default). */
    static constexpr std::uint32_t kHashThreshold = 32;

    /** See AdjacencyList::apply_insert.  `hash_threshold` is the
     *  array -> hash migration degree for this set. */
    ApplyResult insert(Neighbor nbr,
                       std::uint32_t hash_threshold = kHashThreshold);
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

    /** Visit every stored neighbor. */
    template <typename Fn>
    void
    for_each(Fn&& fn) const
    {
        if (table_.empty()) {
            for (const Neighbor& n : array_) {
                fn(n);
            }
        } else {
            for (const auto& slot : table_) {
                if (slot.id != kInvalidVertex) {
                    fn(Neighbor{slot.id, slot.weight});
                }
            }
        }
    }

    /** Sorted materialized copy (tests / CSR building). */
    std::vector<Neighbor> sorted() const;

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

/** Dynamic directed graph with degree-aware hashed edge sets. */
class DegreeAwareHash {
  public:
    explicit DegreeAwareHash(std::size_t num_vertices = 0,
                             const StoreTuning& tuning = {});

    /** Replace the migration threshold (affects future inserts only). */
    void set_tuning(const StoreTuning& tuning) { tuning_ = tuning; }
    const StoreTuning& tuning() const { return tuning_; }

    std::size_t num_vertices() const { return out_.size(); }
    EdgeId num_edges() const { return num_edges_; }

    /** Grow vertex space (single-threaded, between batches). */
    void ensure_vertices(std::size_t n);

    ApplyResult apply_insert(VertexId v, Neighbor nbr, Direction dir);
    ApplyResult apply_remove(VertexId v, VertexId nbr_id, Direction dir);

    Spinlock&
    lock(VertexId v, Direction dir)
    {
        return dir == Direction::kOut ? out_locks_[v] : in_locks_[v];
    }

    std::uint32_t
    degree(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).size();
    }

    const DahEdgeSet&
    edge_set(VertexId v, Direction dir) const
    {
        return dir == Direction::kOut ? out_[v] : in_[v];
    }

    /**
     * Iterable neighbor range (graph::GraphReadPath), representation-
     * blind across the array/hash tiers.  Unordered — hashed vertices
     * yield slot order — matching the unordered-adjacency contract of
     * the other backends' read paths.  Invalidated by any mutation of
     * `v`'s `dir` set.
     */
    DahEdgeSet::View
    edges(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).view();
    }

    /** Sorted copy of a vertex's edges (tests / snapshots). */
    std::vector<Neighbor>
    sorted_edges(VertexId v, Direction dir) const
    {
        return edge_set(v, dir).sorted();
    }

    /** See AdjacencyList::latest_bid / exchange_latest_bid. */
    std::uint64_t
    latest_bid(VertexId v) const
    {
        return latest_bid_[v].load(std::memory_order_relaxed);
    }

    std::uint64_t
    exchange_latest_bid(VertexId v, std::uint64_t bid)
    {
        return latest_bid_[v].exchange(bid, std::memory_order_relaxed);
    }

  private:
    std::vector<DahEdgeSet> out_;
    std::vector<DahEdgeSet> in_;
    SpinlockArray out_locks_;
    SpinlockArray in_locks_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> latest_bid_;
    std::size_t latest_bid_size_ = 0;
    StoreTuning tuning_;
    std::atomic<EdgeId> num_edges_{0};
};

} // namespace igs::graph

#endif // IGS_GRAPH_DEGREE_AWARE_HASH_H
