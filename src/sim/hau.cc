#include "sim/hau.h"

#include <algorithm>

#include "stream/updaters.h"

namespace igs::sim {

namespace {

/** Memory-controller tiles (mesh corners). */
constexpr std::uint32_t kMemTiles[4] = {0, 3, 12, 15};

/** Task message payload: addr(8) + degree(8) + target/weight(8+8). */
constexpr std::uint32_t kTaskBytes = 32;
/** Data request / response sizes. */
constexpr std::uint32_t kReqBytes = 8;
constexpr std::uint32_t kLineBytes = 72; // 64B line + header

} // namespace

HauSimulator::HauSimulator(const MachineParams& machine,
                           const HauCostParams& costs)
    : machine_(machine), costs_(costs),
      num_consumers_(machine.num_cores - 1),
      noc_(std::make_unique<NocModel>(machine)),
      noc_data_only_(std::make_unique<NocModel>(machine)),
      jitter_(0xBADCAB1Eull)
{
    core_caches_.reserve(machine.num_cores);
    l3_slices_.reserve(machine.num_cores);
    for (std::uint32_t c = 0; c < machine.num_cores; ++c) {
        core_caches_.emplace_back(machine);
        l3_slices_.emplace_back(machine.l3_slice_bytes, machine.l3_ways,
                                machine.line_bytes);
    }
    producer_time_.assign(machine.num_cores, 0.0);
    consumers_.resize(machine.num_cores);
    for (auto& c : consumers_) {
        c.fifo_ring.assign(machine.hau_fifo_entries, 0.0);
    }
}

HauCacheTotals
HauSimulator::cache_totals() const
{
    HauCacheTotals t;
    for (const CoreCacheHierarchy& cc : core_caches_) {
        t.l1_hits += cc.l1().hits();
        t.l1_misses += cc.l1().misses();
        t.l2_hits += cc.l2().hits();
        t.l2_misses += cc.l2().misses();
    }
    for (const Cache& slice : l3_slices_) {
        t.l3_hits += slice.hits();
        t.l3_misses += slice.misses();
    }
    return t;
}

std::uint32_t
HauSimulator::consumer_of(VertexId v) const
{
    // Core 0 hosts the master thread (SAGA-Bench setup, Fig 19); workers
    // are cores 1..15 and tasks hash over them.
    return 1 + (v % num_consumers_);
}

HauSimulator::LineFetch
HauSimulator::fetch_line(std::uint32_t core, VertexId v, Direction dir,
                         std::uint32_t line_index, Cycles now)
{
    // Arena layout: each (vertex, direction) region is private to the
    // vertex's owning tile; its lines are homed at that tile's L3 slice.
    const LineAddr region = (static_cast<LineAddr>(v) << 1) |
                            (dir == Direction::kIn ? 1 : 0);
    const LineAddr line = (region << 14) | (line_index & 0x3FFF);

    LineFetch f;
    CoreCacheHierarchy& cc = core_caches_[core];
    if (cc.hit_l1(line)) {
        f.throughput_cost = f.latency_cost =
            std::max<double>(machine_.l1_latency, costs_.line_scan);
        return f;
    }
    if (cc.hit_l2(line)) {
        cc.fill_private(line);
        f.throughput_cost = f.latency_cost =
            static_cast<double>(machine_.l1_latency + machine_.l2_latency);
        return f;
    }

    // Allocator-boundary sharing occasionally homes a line at a foreign
    // tile (the paper's observed 1-2% non-local accesses).
    const bool boundary_remote = jitter_.chance(costs_.boundary_remote_prob);
    const std::uint32_t home =
        boundary_remote ? 1 + ((v + 1 + line_index) % num_consumers_) : core;

    f.throughput_cost = costs_.line_throughput;
    f.latency_cost = static_cast<double>(
        machine_.l1_latency + machine_.l2_latency + machine_.l3_bank_latency);
    if (home != core) {
        f.local = false;
        const Cycles req =
            noc_->send(core, home, kReqBytes, PacketClass::kData, now);
        const Cycles resp =
            noc_->send(home, core, kLineBytes, PacketClass::kData, now);
        noc_data_only_->send(core, home, kReqBytes, PacketClass::kData, now);
        noc_data_only_->send(home, core, kLineBytes, PacketClass::kData, now);
        f.throughput_cost +=
            static_cast<double>(req + resp) * costs_.remote_exposed;
        f.latency_cost += static_cast<double>(req + resp);
    }

    if (!l3_slices_[home].lookup(line)) {
        // L3 miss: round trip to the nearest memory controller.
        std::uint32_t mem = kMemTiles[0];
        for (std::uint32_t t : kMemTiles) {
            if (noc_->hops(home, t) < noc_->hops(home, mem)) {
                mem = t;
            }
        }
        const Cycles mreq =
            noc_->send(home, mem, kReqBytes, PacketClass::kData, now);
        const Cycles mresp =
            noc_->send(mem, home, kLineBytes, PacketClass::kData, now);
        noc_data_only_->send(home, mem, kReqBytes, PacketClass::kData, now);
        noc_data_only_->send(mem, home, kLineBytes, PacketClass::kData, now);
        f.throughput_cost += costs_.dram_extra;
        f.latency_cost += static_cast<double>(
            machine_.dram_device_latency + mreq + mresp);
        l3_slices_[home].fill(line);
    }
    cc.fill_private(line);
    return f;
}

void
HauSimulator::barrier()
{
    double m = 0.0;
    for (double t : producer_time_) {
        m = std::max(m, t);
    }
    for (const Consumer& c : consumers_) {
        m = std::max(m, c.time);
    }
    for (double& t : producer_time_) {
        t = m;
    }
    for (Consumer& c : consumers_) {
        c.time = m;
    }
}

void
HauSimulator::run_subphase(graph::AdjacencyList& g,
                           const stream::EdgeBatch& batch, bool deletes,
                           stream::OcaProbe* probe, HauRunStats& stats)
{
    const std::size_t n = batch.edges().size();
    std::vector<std::vector<Task>> queues(machine_.num_cores);

    // ---- Production: workers 1..15 stream through contiguous shares of
    // the batch, applying the update functionally and emitting two tasks
    // (out at src's tile, in at dst's tile) per streamed edge.
    for (std::size_t i = 0; i < n; ++i) {
        const StreamEdge& e = batch.edges()[i];
        if (e.is_delete != deletes) {
            continue;
        }
        const std::uint32_t producer =
            1 + static_cast<std::uint32_t>(i * num_consumers_ / std::max<std::size_t>(n, 1));
        double& pt = producer_time_[producer];

        stream::touch_source(g, e.src, batch.id, probe);

        auto emit = [&](VertexId v, Direction dir, graph::ApplyResult r,
                        bool is_delete) {
            pt += costs_.supply_task;
            const std::uint32_t consumer = consumer_of(v);
            const Cycles t_now = static_cast<Cycles>(pt);
            const Cycles lat = noc_->send(producer, consumer, kTaskBytes,
                                          PacketClass::kTask, t_now);
            Task task;
            task.vertex = v;
            task.dir = dir;
            task.arrival = pt + static_cast<double>(lat);
            task.consumer = consumer;
            task.probes = r.probes;
            task.found = r.found;
            task.is_delete = is_delete;
            // Host-side modeling queue: the modeled HAU cost is charged
            // analytically here.  igs-lint: allow(hot-path-alloc)
            queues[consumer].push_back(task);
        };

        if (!deletes) {
            const auto r_out = g.apply_insert(
                e.src, Neighbor{e.dst, e.weight}, Direction::kOut);
            const auto r_in = g.apply_insert(
                e.dst, Neighbor{e.src, e.weight}, Direction::kIn);
            emit(e.src, Direction::kOut, r_out, false);
            emit(e.dst, Direction::kIn, r_in, false);
            stats.inserts += (r_out.found ? 0 : 1) + (r_in.found ? 0 : 1);
            stats.weight_updates += (r_out.found ? 1 : 0) + (r_in.found ? 1 : 0);
        } else {
            const auto r_out = g.apply_remove(e.src, e.dst, Direction::kOut);
            const auto r_in = g.apply_remove(e.dst, e.src, Direction::kIn);
            emit(e.src, Direction::kOut, r_out, true);
            emit(e.dst, Direction::kIn, r_in, true);
            stats.removes += (r_out.found ? 1 : 0) + (r_in.found ? 1 : 0);
        }
        stats.tasks += 2;
    }

    consume_phase(queues, stats);
}

void
HauSimulator::consume_phase(std::vector<std::vector<Task>>& queues,
                            HauRunStats& stats)
{
    for (std::uint32_t c = 0; c < machine_.num_cores; ++c) {
        auto& q = queues[c];
        if (q.empty()) {
            continue;
        }
        std::stable_sort(q.begin(), q.end(),
                         [](const Task& a, const Task& b) {
                             return a.arrival < b.arrival;
                         });
        Consumer& con = consumers_[c];
        HauCoreStats& cs = stats.per_core[c];
        for (const Task& t : q) {
            // FIFO backpressure: a task is accepted once the task admitted
            // `fifo_entries` earlier has completed (its MSHR is freed as
            // soon as the FIFO slot frees).
            const double fifo_free = con.fifo_ring[con.fifo_pos];
            const double accept = std::max(t.arrival, fifo_free);
            if (accept > t.arrival) {
                stats.fifo_stall_cycles +=
                    static_cast<Cycles>(accept - t.arrival);
            }
            const double start = std::max(con.time, accept);

            // Even a degree-0 vertex costs one line (slot-0 metadata).
            const std::uint32_t lines =
                std::max<std::uint32_t>(1, (t.probes + 7) / 8);
            double dur = costs_.task_setup;
            for (std::uint32_t li = 0; li < lines; ++li) {
                const LineFetch f = fetch_line(
                    c, t.vertex, t.dir, li,
                    static_cast<Cycles>(start + dur));
                // The first line of a task is prefetched from the task
                // descriptor (task MSHRs overlap it with earlier tasks);
                // the scan walks subsequent lines sequentially and eats
                // their full latency — the paper's "sophisticated only
                // enough for low-degree batches" design point.
                const double line_cost =
                    li == 0 ? f.throughput_cost
                            : std::max(f.throughput_cost,
                                       f.latency_cost *
                                           costs_.within_task_exposed);
                dur += line_cost + costs_.line_scan;
                ++cs.lines;
                if (f.local) {
                    ++cs.local_lines;
                } else {
                    ++cs.remote_lines;
                }
            }
            if (!t.is_delete && !t.found) {
                dur += costs_.core_append; // write handed over to the core
            } else if (t.is_delete && t.found) {
                dur += costs_.core_append; // compaction write
            } else if (t.found) {
                dur += 4.0; // weight accumulate into the fetched line
            }

            con.time = start + dur;
            con.fifo_ring[con.fifo_pos] = con.time;
            con.fifo_pos = (con.fifo_pos + 1) % con.fifo_ring.size();
            ++con.accepted;
            ++cs.tasks;
            cs.busy_cycles += dur;
        }
    }
}

HauRunStats
HauSimulator::run_batch(graph::AdjacencyList& g,
                        const stream::EdgeBatch& batch,
                        stream::OcaProbe* probe)
{
    HauRunStats stats;
    // igs-lint: allow(hot-path-alloc) -- per-run stats sizing (host-side)
    stats.per_core.resize(machine_.num_cores);

    barrier();
    double start = 0.0;
    for (double t : producer_time_) {
        start = std::max(start, t);
    }

    bool has_deletes = false;
    for (const StreamEdge& e : batch.edges()) {
        if (e.is_delete) {
            has_deletes = true;
            break;
        }
    }

    run_subphase(g, batch, /*deletes=*/false, probe, stats);
    barrier();
    if (has_deletes) {
        run_subphase(g, batch, /*deletes=*/true, probe, stats);
        barrier();
    }

    double end = 0.0;
    for (double t : producer_time_) {
        end = std::max(end, t);
    }
    stats.cycles = static_cast<Cycles>(end - start);
    return stats;
}

} // namespace igs::sim
