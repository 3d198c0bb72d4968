#include "core/cad.h"

#include <algorithm>

#include "common/concurrent_hash_map.h"

namespace igs::core {

double
cad_from_histogram(const Histogram& degree_histogram, std::size_t b,
                   std::uint32_t lambda)
{
    std::uint64_t y = 0; // edges from vertices with 1 <= degree <= lambda
    std::uint64_t x = 0; // unique vertices with degree > lambda
    for (const auto& [degree, count] : degree_histogram.bins()) {
        if (degree >= 1 && degree <= lambda) {
            y += degree * count;
        } else if (degree > lambda) {
            x += count;
        }
    }
    if (x == 0) {
        return 0.0;
    }
    return static_cast<double>(b - y) / static_cast<double>(x);
}

CadResult
cad_from_reordered(const stream::ReorderedBatch& rb, std::uint32_t lambda)
{
    CadResult r;
    Histogram out_h;
    for (const stream::VertexRun& run : rb.by_src.runs) {
        out_h.add(run.size());
        r.max_out_degree = std::max(r.max_out_degree, run.size());
    }
    Histogram in_h;
    for (const stream::VertexRun& run : rb.by_dst.runs) {
        in_h.add(run.size());
        r.max_in_degree = std::max(r.max_in_degree, run.size());
    }
    r.cad_out = cad_from_histogram(out_h, rb.batch_size, lambda);
    r.cad_in = cad_from_histogram(in_h, rb.batch_size, lambda);
    return r;
}

CadResult
cad_from_batch(std::span<const StreamEdge> edges, std::uint32_t lambda,
               ThreadPool& pool)
{
    // The paper populates an Intel-TBB concurrent hash map from the update
    // threads; we use our sharded map the same way (parallel accumulate,
    // then a single-threaded sweep).
    ConcurrentHashMap<VertexId, std::uint32_t> out_deg(edges.size());
    ConcurrentHashMap<VertexId, std::uint32_t> in_deg(edges.size());
    pool.parallel_for(0, edges.size(), [&](std::size_t i) {
        out_deg.update(edges[i].src, [](std::uint32_t& d) { ++d; });
        in_deg.update(edges[i].dst, [](std::uint32_t& d) { ++d; });
    });

    CadResult r;
    Histogram out_h;
    out_deg.for_each([&](VertexId, std::uint32_t d) {
        out_h.add(d);
        r.max_out_degree = std::max(r.max_out_degree, d);
    });
    Histogram in_h;
    in_deg.for_each([&](VertexId, std::uint32_t d) {
        in_h.add(d);
        r.max_in_degree = std::max(r.max_in_degree, d);
    });
    r.cad_out = cad_from_histogram(out_h, edges.size(), lambda);
    r.cad_in = cad_from_histogram(in_h, edges.size(), lambda);
    return r;
}

} // namespace igs::core
