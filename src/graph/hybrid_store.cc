#include "graph/hybrid_store.h"

#include <algorithm>
#include <limits>

#include "common/telemetry.h"
#include "graph/edge_rows.h"

namespace igs::graph {

namespace {

/** core.graph.tier_* telemetry, resolved on first HybridStore use.  Lazy
 *  on purpose: runs that never construct a HybridStore must not add these
 *  metrics to the registry snapshot, or every existing golden run would
 *  grow "only in candidate" keys (same pattern as PipelineTelemetry). */
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
        return hash_insert(nbr);
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
        promote_to_hash();
    }
    return r;
}

ApplyResult
HybridEdgeSet::hash_insert(Neighbor nbr)
{
    ApplyResult r;
    r.len_before = count_;
    if ((count_ + 1) * 4 >= index_.size() * 3) {
        grow_index();
    }
    const std::size_t mask = index_.size() - 1;
    std::size_t i = hash_id(nbr.id) & mask;
    while (index_[i] != 0) {
        ++r.probes;
        Neighbor& n = heap_[index_[i] - 1];
        if (n.id == nbr.id) {
            n.weight += nbr.weight;
            r.found = true;
            r.written_at = index_[i] - 1;
            return r;
        }
        i = (i + 1) & mask;
    }
    ++r.probes;
    reserve_row(heap_, count_ + 1);
    // igs-lint: allow(hot-path-alloc) -- within the reserve_row capacity
    heap_.push_back(nbr);
    // The hash index stores 1-based uint32 slots into the dense array;
    // a per-vertex edge set past 2^32-1 entries would silently alias.
    IGS_DCHECK(heap_.size() <=
               std::numeric_limits<std::uint32_t>::max());
    index_[i] = static_cast<std::uint32_t>(heap_.size());
    r.written_at = count_;
    ++count_;
    return r;
}

ApplyResult
HybridEdgeSet::remove(VertexId nbr_id)
{
    if (tier_ == kHashed) {
        return hash_remove(nbr_id);
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

ApplyResult
HybridEdgeSet::hash_remove(VertexId nbr_id)
{
    ApplyResult r;
    r.len_before = count_;
    const std::size_t mask = index_.size() - 1;
    std::size_t i = hash_id(nbr_id) & mask;
    while (index_[i] != 0) {
        ++r.probes;
        const std::uint32_t pos = index_[i] - 1;
        if (heap_[pos].id == nbr_id) {
            r.found = true;
            // 1. Backshift-delete the index slot (keeps probe sequences
            //    valid without tombstones; same idiom as DahEdgeSet).
            std::size_t hole = i;
            std::size_t j = (i + 1) & mask;
            while (index_[j] != 0) {
                const std::size_t home =
                    hash_id(heap_[index_[j] - 1].id) & mask;
                if (((j - home) & mask) >= ((j - hole) & mask)) {
                    index_[hole] = index_[j];
                    hole = j;
                }
                j = (j + 1) & mask;
            }
            index_[hole] = 0;
            // 2. Swap-with-last in the dense array, repointing the moved
            //    element's index slot at its new position.
            const std::uint32_t last = count_ - 1;
            if (pos != last) {
                heap_[pos] = heap_[last];
                std::size_t k = hash_id(heap_[pos].id) & mask;
                while (index_[k] != last + 1) {
                    IGS_DCHECK(index_[k] != 0);
                    k = (k + 1) & mask;
                }
                index_[k] = pos + 1;
            }
            heap_.pop_back();
            --count_;
            r.written_at = pos;
            return r;
        }
        i = (i + 1) & mask;
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

void
HybridEdgeSet::promote_to_hash()
{
    std::size_t cap = 16;
    while (cap * 3 < static_cast<std::size_t>(count_) * 4 * 2) {
        cap <<= 1;
    }
    index_.assign(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::uint32_t p = 0; p < count_; ++p) {
        std::size_t i = hash_id(heap_[p].id) & mask;
        while (index_[i] != 0) {
            i = (i + 1) & mask;
        }
        index_[i] = p + 1;
    }
    tier_ = kHashed;
}

void
HybridEdgeSet::grow_index()
{
    // Positions are derivable from the dense array, so growth is a
    // rebuild rather than a rehash of the old slots.
    index_.assign(index_.size() * 2, 0);
    const std::size_t mask = index_.size() - 1;
    for (std::uint32_t p = 0; p < count_; ++p) {
        std::size_t i = hash_id(heap_[p].id) & mask;
        while (index_[i] != 0) {
            i = (i + 1) & mask;
        }
        index_[i] = p + 1;
    }
}

std::vector<Neighbor>
HybridEdgeSet::sorted() const
{
    const auto v = view();
    std::vector<Neighbor> result(v.begin(), v.end());
    std::sort(result.begin(), result.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
    return result;
}

// ------------------------------------------------------------------- store

HybridStore::HybridStore(std::size_t num_vertices, const StoreTuning& tuning)
    : tuning_(tuning)
{
    // Resolve the tier telemetry at construction so every run that
    // touches a HybridStore exports the same registry keys, whether or
    // not any vertex ever promoted.
    HybridTelemetry::get();
    ensure_vertices(num_vertices);
}

void
HybridStore::ensure_vertices(std::size_t n)
{
    if (n <= out_.size()) {
        return;
    }
    out_.resize(n);
    in_.resize(n);
    marks_.grow(n);
    auto new_bids = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < latest_bid_size_; ++i) {
        new_bids[i].store(latest_bid_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    latest_bid_ = std::move(new_bids);
    latest_bid_size_ = n;
    // As in AdjacencyList: growth happens between batches, no lock held.
    out_locks_.resize(n);
    in_locks_.resize(n);
}

ApplyResult
HybridStore::insert_into(HybridEdgeSet& set, Neighbor nbr)
{
    auto& t = HybridTelemetry::get();
    const std::uint8_t tier_before = set.tier();
    // igs-lint: allow(hot-path-alloc) -- streamed insert is the workload
    const ApplyResult r = set.insert(nbr, tuning_.hybrid_sorted_threshold);
    t.probes[tier_before]->record(r.probes);
    if (set.tier() != tier_before) {
        if (tier_before == HybridEdgeSet::kInline) {
            t.promotions_to_sorted.inc();
        }
        if (set.tier() == HybridEdgeSet::kHashed) {
            t.promotions_to_hash.inc();
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
    const VertexId p = map_.to_physical(v);
    IGS_DCHECK(p < out_.size());
    auto& set = dir == Direction::kOut ? out_[p] : in_[p];
    const ApplyResult r = insert_into(set, nbr);
    marks_.lower(p, dir, r.written_at);
    if (!r.found && dir == Direction::kOut) {
        num_edges_.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

ApplyResult
HybridStore::apply_remove(VertexId v, VertexId nbr_id, Direction dir)
{
    const VertexId p = map_.to_physical(v);
    IGS_DCHECK(p < out_.size());
    auto& set = dir == Direction::kOut ? out_[p] : in_[p];
    const ApplyResult r = remove_from(set, nbr_id);
    marks_.lower(p, dir, r.written_at);
    if (r.found && dir == Direction::kOut) {
        num_edges_.fetch_sub(1, std::memory_order_relaxed);
    }
    return r;
}

std::size_t
HybridStore::apply_coalesced(VertexId v, Direction dir, FlatWeightTable& table)
{
    const VertexId p = map_.to_physical(v);
    IGS_DCHECK(p < out_.size());
    auto& set = dir == Direction::kOut ? out_[p] : in_[p];
    // Steps 2-3 (Fig 8): one scan of the edge data, draining table
    // entries that match existing edges (weight accumulates in place).
    const std::span<Neighbor> row = set.view_mut();
    for (std::uint32_t i = 0; i < set.size(); ++i) {
        Weight w = 0.0f;
        if (table.drain(row[i].id, &w)) {
            row[i].weight += w;
            marks_.lower(p, dir, i);
        }
    }
    // Step 4: the remainder is new edges by construction; the tiered
    // insert keeps promotion and index invariants (its duplicate check
    // is a guaranteed miss, so the probes it reports stay honest).
    std::size_t appended = 0;
    table.for_each([&](VertexId target, Weight w) {
        const ApplyResult r = insert_into(set, Neighbor{target, w});
        IGS_DCHECK(!r.found);
        marks_.lower(p, dir, r.written_at);
        ++appended;
    });
    if (dir == Direction::kOut && appended != 0) {
        num_edges_.fetch_add(appended, std::memory_order_relaxed);
    }
    return appended;
}

void
HybridStore::apply_renumber(std::span<const VertexId> l2p)
{
    IGS_CHECK_MSG(l2p.size() == out_.size(),
                  "apply_renumber: assignment must cover the vertex space");
    const std::size_t n = out_.size();
    // Move-permute the per-vertex records; heap arrays and hash indexes
    // travel with their HybridEdgeSet, and edge payloads stay logical.
    std::vector<HybridEdgeSet> new_out(n);
    std::vector<HybridEdgeSet> new_in(n);
    for (std::size_t l = 0; l < n; ++l) {
        const VertexId p_old = map_.to_physical(static_cast<VertexId>(l));
        new_out[l2p[l]] = std::move(out_[p_old]);
        new_in[l2p[l]] = std::move(in_[p_old]);
    }
    out_ = std::move(new_out);
    in_ = std::move(new_in);
    marks_.renumber(map_, l2p);
    map_.rebind(l2p);
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
    const TierCensus c = tier_census();
    auto& t = HybridTelemetry::get();
    for (int i = 0; i < 3; ++i) {
        t.tier_vertices[i]->set(static_cast<double>(c.vertices[i]));
    }
}

} // namespace igs::graph
