#include "graph/hybrid_store.h"

#include <algorithm>
#include <utility>

#include "common/telemetry.h"

namespace igs::graph {

namespace {

/** core.graph.tier_* telemetry, resolved on first HybridStore use.  Lazy
 *  on purpose: runs that never construct a HybridStore must not add these
 *  metrics to the registry snapshot, or every existing golden run would
 *  grow "only in candidate" keys. */
struct HybridTelemetry {
    telemetry::Counter& promotions_to_sorted;
    telemetry::Counter& promotions_to_hash;
    telemetry::Histogram* probes[3];
    telemetry::Gauge* tier_vertices[3];

    static HybridTelemetry&
    get()
    {
        // Probe-count decades: tier 0/1 land in the low buckets (inline
        // scan / binary search), a linear hub scan would fill the tail.
        static const double kProbeBounds[] = {0.0,  1.0,  2.0,  4.0, 8.0,
                                              16.0, 32.0, 64.0, 128.0};
        auto& r = telemetry::Registry::global();
        static HybridTelemetry t{
            r.counter("core.graph.tier_promotions_to_sorted"),
            r.counter("core.graph.tier_promotions_to_hash"),
            {&r.histogram("core.graph.tier0_probes", kProbeBounds),
             &r.histogram("core.graph.tier1_probes", kProbeBounds),
             &r.histogram("core.graph.tier2_probes", kProbeBounds)},
            {&r.gauge("core.graph.tier0_vertices"),
             &r.gauge("core.graph.tier1_vertices"),
             &r.gauge("core.graph.tier2_vertices")},
        };
        return t;
    }
};

} // namespace

// ---------------------------------------------------------------- edge set

ApplyResult
HybridEdgeSet::insert(Neighbor nbr, std::uint32_t sorted_threshold)
{
    if (tier_ == kHashed) {
        // igs-lint: allow(hot-path-alloc) -- the index's dense append
        const ApplyResult r = index_.insert(heap_, nbr);
        count_ += r.found ? 0 : 1;
        return r;
    }

    ApplyResult r;
    r.len_before = count_;

    if (tier_ == kInline) {
        // An inline row is at most kInlineCapacity entries: any write
        // marks it changed from index 0.
        for (std::uint32_t i = 0; i < count_; ++i) {
            ++r.probes;
            if (inline_[i].id == nbr.id) {
                inline_[i].weight += nbr.weight;
                r.found = true;
                r.written_at = 0;
                return r;
            }
        }
        r.written_at = 0;
        if (count_ < kInlineCapacity) {
            inline_[count_++] = nbr;
            return r;
        }
        // Inline record full: promote, then place the (known-absent)
        // newcomer through the sorted path below.
        promote_to_sorted();
    }

    // Tier 1: binary-search duplicate check over the sorted array.
    std::uint32_t lo = 0;
    std::uint32_t hi = count_;
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        ++r.probes;
        if (heap_[mid].id < nbr.id) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if (lo < count_) {
        ++r.probes;
        if (heap_[lo].id == nbr.id) {
            heap_[lo].weight += nbr.weight;
            r.found = true;
            r.written_at = lo;
            return r;
        }
    }
    // The insert shifts [lo, count_) up by one.
    reserve_row(heap_, count_ + 1);
    // igs-lint: allow(hot-path-alloc) -- within the reserve_row capacity
    heap_.insert(heap_.begin() + lo, nbr);
    r.written_at = std::min(r.written_at, lo);
    ++count_;
    if (count_ >= sorted_threshold) {
        index_.build(heap_);
        tier_ = kHashed;
    }
    return r;
}

std::uint32_t
HybridEdgeSet::position_of(VertexId id) const
{
    if (tier_ == kInline) {
        for (std::uint32_t i = 0; i < count_; ++i) {
            if (inline_[i].id == id) {
                return i;
            }
        }
        return count_;
    }
    if (tier_ == kSorted) {
        const auto end = heap_.begin() + count_;
        const auto it = std::lower_bound(
            heap_.begin(), end, id,
            [](const Neighbor& n, VertexId key) { return n.id < key; });
        return it != end && it->id == id
                   ? static_cast<std::uint32_t>(it - heap_.begin())
                   : count_;
    }
    return index_.find(heap_, id);
}

ApplyResult
HybridEdgeSet::remove(VertexId nbr_id)
{
    if (tier_ == kHashed) {
        const ApplyResult r = index_.remove(heap_, nbr_id);
        count_ -= r.found ? 1 : 0;
        return r;
    }

    ApplyResult r;
    r.len_before = count_;

    if (tier_ == kInline) {
        for (std::uint32_t i = 0; i < count_; ++i) {
            ++r.probes;
            if (inline_[i].id == nbr_id) {
                inline_[i] = inline_[count_ - 1];
                --count_;
                r.found = true;
                r.written_at = 0;
                return r;
            }
        }
        return r;
    }

    // Tier 1: binary search, then an order-preserving erase (the array
    // must stay sorted for future duplicate checks).
    std::uint32_t lo = 0;
    std::uint32_t hi = count_;
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        ++r.probes;
        if (heap_[mid].id < nbr_id) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if (lo < count_) {
        ++r.probes;
        if (heap_[lo].id == nbr_id) {
            heap_.erase(heap_.begin() + lo);
            --count_;
            r.found = true;
            r.written_at = lo;
        }
    }
    return r;
}

void
HybridEdgeSet::promote_to_sorted()
{
    heap_.assign(inline_, inline_ + count_);
    std::sort(heap_.begin(), heap_.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
    tier_ = kSorted;
}

// ------------------------------------------------------------------- store

HybridStore::HybridStore(std::size_t num_vertices, const StoreTuning& tuning)
    : LiveStore(num_vertices), tuning_(tuning)
{
    // Resolve the tier telemetry at construction so every run that
    // touches a HybridStore exports the same registry keys, whether or
    // not any vertex ever promoted.
    HybridTelemetry::get();
}

HybridStore::HybridStore(HybridStore&& other) noexcept
    : LiveStore(std::move(other)), tuning_(other.tuning_),
      out_to_sorted_(other.out_to_sorted_.exchange(
          0, std::memory_order_relaxed)),
      out_to_hash_(other.out_to_hash_.exchange(0, std::memory_order_relaxed))
{
}

ApplyResult
HybridStore::insert_into(HybridEdgeSet& set, Neighbor nbr, Direction dir)
{
    auto& t = HybridTelemetry::get();
    const std::uint8_t tier_before = set.tier();
    // igs-lint: allow(hot-path-alloc) -- streamed insert is the workload
    const ApplyResult r = set.insert(nbr, tuning_.hybrid_sorted_threshold);
    t.probes[tier_before]->record(r.probes);
    if (set.tier() != tier_before) {
        // One insert may promote twice (inline -> sorted -> hashed).
        const bool out = dir == Direction::kOut;
        if (tier_before == HybridEdgeSet::kInline) {
            t.promotions_to_sorted.inc();
            if (out) {
                out_to_sorted_.fetch_add(1, std::memory_order_relaxed);
            }
        }
        if (set.tier() == HybridEdgeSet::kHashed) {
            t.promotions_to_hash.inc();
            if (out) {
                out_to_hash_.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }
    return r;
}

ApplyResult
HybridStore::remove_from(HybridEdgeSet& set, VertexId nbr_id)
{
    const std::uint8_t tier_now = set.tier();
    const ApplyResult r = set.remove(nbr_id);
    HybridTelemetry::get().probes[tier_now]->record(r.probes);
    return r;
}

ApplyResult
HybridStore::apply_insert(VertexId v, Neighbor nbr, Direction dir)
{
    auto& set = row(v, dir);
    const ApplyResult r = insert_into(set, nbr, dir);
    marks_.lower(v, dir, r.written_at);
    if (!r.found && dir == Direction::kOut) {
        num_edges_.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

ApplyResult
HybridStore::apply_remove(VertexId v, VertexId nbr_id, Direction dir)
{
    auto& set = row(v, dir);
    const ApplyResult r = remove_from(set, nbr_id);
    marks_.lower(v, dir, r.written_at);
    if (r.found && dir == Direction::kOut) {
        num_edges_.fetch_sub(1, std::memory_order_relaxed);
    }
    return r;
}

std::size_t
HybridStore::apply_coalesced(VertexId v, Direction dir, FlatWeightTable& table)
{
    auto& set = row(v, dir);
    // Steps 2-3 (Fig 8): one scan of the edge data, draining table
    // entries that match existing edges (weight accumulates in place).
    const std::span<Neighbor> row = set.view_mut();
    for (std::uint32_t i = 0; i < set.size(); ++i) {
        Weight w = 0.0f;
        if (table.drain(row[i].id, &w)) {
            row[i].weight += w;
            marks_.lower(v, dir, i);
        }
    }
    // Step 4: the remainder is new edges by construction; the tiered
    // insert keeps promotion and index invariants (its duplicate check
    // is a guaranteed miss, so the probes it reports stay honest).
    std::size_t appended = 0;
    table.for_each([&](VertexId target, Weight w) {
        const ApplyResult r = insert_into(set, Neighbor{target, w}, dir);
        IGS_DCHECK(!r.found);
        marks_.lower(v, dir, r.written_at);
        ++appended;
    });
    if (dir == Direction::kOut && appended != 0) {
        num_edges_.fetch_add(appended, std::memory_order_relaxed);
    }
    return appended;
}

ApplyResult
HybridStore::apply_coalesced_one(VertexId v, Direction dir, Neighbor nbr)
{
    auto& set = row(v, dir);
    const std::uint32_t at = set.position_of(nbr.id);
    if (at == set.size()) {
        // A miss takes the tiered insert, as apply_coalesced's remainder.
        return apply_insert(v, nbr, dir);
    }
    set.view_mut()[at].weight += nbr.weight;
    marks_.lower(v, dir, at);
    ApplyResult r;
    r.found = true;
    r.len_before = set.size();
    r.written_at = at;
    return r;
}

HybridStore::TierCensus
HybridStore::tier_census() const
{
    TierCensus c;
    for (const HybridEdgeSet& set : out_) {
        ++c.vertices[set.tier()];
    }
    return c;
}

void
HybridStore::publish_tier_telemetry() const
{
    const std::size_t to_sorted =
        out_to_sorted_.load(std::memory_order_relaxed);
    const std::size_t to_hash = out_to_hash_.load(std::memory_order_relaxed);
    auto& t = HybridTelemetry::get();
    t.tier_vertices[HybridEdgeSet::kInline]->set(
        static_cast<double>(num_vertices() - to_sorted));
    t.tier_vertices[HybridEdgeSet::kSorted]->set(
        static_cast<double>(to_sorted - to_hash));
    t.tier_vertices[HybridEdgeSet::kHashed]->set(
        static_cast<double>(to_hash));
}

} // namespace igs::graph
