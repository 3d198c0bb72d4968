/**
 * @file
 * Telemetry registry tests: counter shard merging, histogram bucketing,
 * JSON snapshot stability, concurrent writers (exercised under the TSan
 * ctest leg), and the zero-allocation hot-path contract from
 * common/telemetry.h (verified with the global allocation hook).
 */
#include "common/telemetry.h"

#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_counter.h"

namespace igs::telemetry {
namespace {

TEST(Counter, MergesIncrementsAcrossThreads)
{
    Counter c;
    constexpr int kThreads = 8;
    constexpr int kIncs = 10000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&c] {
            for (int i = 0; i < kIncs; ++i) {
                c.inc();
            }
            c.inc(5);
        });
    }
    for (auto& t : ts) {
        t.join();
    }
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * (kIncs + 5));
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddWatermark)
{
    Gauge g;
    g.set(3.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 5.0);
    g.watermark(4.0); // below: no change
    EXPECT_DOUBLE_EQ(g.value(), 5.0);
    g.watermark(9.0);
    EXPECT_DOUBLE_EQ(g.value(), 9.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsOnFirstBoundAtLeastValue)
{
    const double bounds[] = {10.0, 20.0, 30.0};
    Histogram h(bounds);
    h.record(-1.0); // bucket 0
    h.record(10.0); // bucket 0 (v <= bound)
    h.record(10.5); // bucket 1
    h.record(20.0); // bucket 1
    h.record(30.0); // bucket 2
    h.record(31.0); // overflow bucket 3
    EXPECT_EQ(h.bucket_count(0), 2u);
    EXPECT_EQ(h.bucket_count(1), 2u);
    EXPECT_EQ(h.bucket_count(2), 1u);
    EXPECT_EQ(h.bucket_count(3), 1u);
    EXPECT_EQ(h.total_count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), -1.0 + 10.0 + 10.5 + 20.0 + 30.0 + 31.0);
}

TEST(Histogram, ConcurrentRecords)
{
    const double bounds[] = {100.0};
    Histogram h(bounds);
    constexpr int kThreads = 6;
    constexpr int kRecs = 5000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&h, t] {
            for (int i = 0; i < kRecs; ++i) {
                h.record(t < kThreads / 2 ? 1.0 : 1000.0);
            }
        });
    }
    for (auto& t : ts) {
        t.join();
    }
    EXPECT_EQ(h.total_count(),
              static_cast<std::uint64_t>(kThreads) * kRecs);
    EXPECT_EQ(h.bucket_count(0) + h.bucket_count(1), h.total_count());
}

TEST(Registry, SameNameYieldsSameMetric)
{
    Registry r;
    Counter& a = r.counter("x.y.z");
    Counter& b = r.counter("x.y.z");
    EXPECT_EQ(&a, &b);
    const double bounds[] = {1.0, 2.0};
    Histogram& h1 = r.histogram("h", bounds);
    Histogram& h2 = r.histogram("h", bounds);
    EXPECT_EQ(&h1, &h2);
}

TEST(Registry, ResetZeroesInPlaceKeepingReferences)
{
    Registry r;
    Counter& c = r.counter("c");
    Gauge& g = r.gauge("g");
    c.inc(7);
    g.set(2.0);
    r.reset_values();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    c.inc(); // the reference must still be live and registered
    EXPECT_EQ(r.counter("c").value(), 1u);
}

/** Equal state must serialize byte-identically — the golden-run premise. */
TEST(Registry, JsonSnapshotIsStable)
{
    const double bounds[] = {1.0, 465.0};
    auto populate = [&bounds](Registry& r) {
        r.counter("b.count").inc(3);
        r.counter("a.count").inc(41);
        r.gauge("m.gauge").set(0.25);
        Histogram& h = r.histogram("m.hist", bounds);
        h.record(0.5);
        h.record(465.0);
        h.record(1e6);
        r.phase("p.wall").add(1.5);
    };
    Registry r1;
    Registry r2;
    populate(r1);
    populate(r2);
    const std::string s1 = r1.to_json();
    EXPECT_EQ(s1, r2.to_json());
    EXPECT_EQ(s1, r1.to_json()); // snapshotting does not mutate

    // Keys come out sorted, so diffs are positional.
    EXPECT_LT(s1.find("a.count"), s1.find("b.count"));
    EXPECT_NE(s1.find("\"counters\""), std::string::npos);
    EXPECT_NE(s1.find("\"histograms\""), std::string::npos);

    // Zero-then-replay round-trips to the identical document.
    r1.reset_values();
    EXPECT_NE(s1, r1.to_json());
    populate(r1);
    EXPECT_EQ(s1, r1.to_json());

    // Indent-0 form is the same document modulo whitespace.
    std::string compact = r1.to_json(0);
    EXPECT_EQ(compact.find('\n'), std::string::npos);
}

TEST(JsonWriter, DoubleFormattingIsTypedAndStable)
{
    EXPECT_EQ(JsonWriter::format_double(3.0), "3.0");
    EXPECT_EQ(JsonWriter::format_double(-2.0), "-2.0");
    EXPECT_EQ(JsonWriter::format_double(0.1), "0.1");
    EXPECT_EQ(JsonWriter::format_double(465.0), "465.0");
    EXPECT_EQ(JsonWriter::format_double(0.0), "0.0");
    const std::string nan = JsonWriter::format_double(
        std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(nan, "null");
    EXPECT_EQ(JsonWriter::format_double(
                  std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonWriter, EscapesAndNesting)
{
    JsonWriter w(0);
    w.begin_object();
    w.kv("quote\"back\\slash", "line\nfeed\ttab");
    w.key("arr").begin_array().value(1).value(false).null().end_array();
    w.key("empty").begin_object().end_object();
    w.end_object();
    EXPECT_EQ(w.take(),
              "{\"quote\\\"back\\\\slash\":\"line\\nfeed\\ttab\","
              "\"arr\":[1,false,null],\"empty\":{}}");
}

TEST(JsonWriter, PrettyPrintsWithIndent)
{
    JsonWriter w(2);
    w.begin_object();
    w.kv("a", 1);
    w.key("b").begin_array().value(2).end_array();
    w.end_object();
    EXPECT_EQ(w.take(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n");
}

/** The hot-path contract: once registered (and the calling thread's shard
 *  slot is warm), recording a metric never touches the allocator. */
TEST(Telemetry, HotPathIsAllocationFree)
{
    Registry r;
    Counter& c = r.counter("hot.counter");
    Gauge& g = r.gauge("hot.gauge");
    const double bounds[] = {1.0, 10.0, 100.0};
    Histogram& h = r.histogram("hot.hist", bounds);
    c.inc(); // warm this thread's TLS shard slot

    set_alloc_tracking(true);
    for (int i = 0; i < 10000; ++i) {
        c.inc();
        c.inc(3);
        g.set(static_cast<double>(i));
        g.add(0.5);
        g.watermark(static_cast<double>(i));
        h.record(static_cast<double>(i % 200));
    }
    set_alloc_tracking(false);
    EXPECT_EQ(tracked_alloc_count(), 0u)
        << "telemetry hot path touched the allocator";
}

/** Writers on several threads while another thread snapshots: exercises
 *  the registry lock + relaxed counters under the TSan ctest leg. */
TEST(Telemetry, ConcurrentWritersAndSnapshots)
{
    Registry r;
    Counter& c = r.counter("cc.counter");
    const double bounds[] = {8.0};
    Histogram& h = r.histogram("cc.hist", bounds);
    constexpr int kThreads = 4;
    constexpr int kIters = 20000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                h.record(static_cast<double>(i % 16));
            }
        });
    }
    std::string last;
    for (int i = 0; i < 50; ++i) {
        last = r.to_json(0); // racing reads are relaxed-atomic, not torn
    }
    for (auto& t : ts) {
        t.join();
    }
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(h.total_count(), static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_FALSE(last.empty());
}

/** Four threads recording one integer multiset spread it over four
 *  shards (slots are striped round-robin at a thread's first use); the
 *  merged counts and sum equal a one-thread histogram's exactly, and
 *  reset() clears every shard. */
TEST(Telemetry, HistogramShardsMatchOneThread)
{
    const double bounds[] = {0.0,  1.0,  2.0,  4.0,  8.0,
                             16.0, 32.0, 64.0, 128.0};
    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    const auto sample = [](int t, int i) {
        return static_cast<double>((t * 7919 + i * 31) % 300);
    };
    Histogram one(bounds);
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            one.record(sample(t, i));
        }
    }
    Histogram four(bounds);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&four, &sample, t] {
            for (int i = 0; i < kPerThread; ++i) {
                four.record(sample(t, i));
            }
        });
    }
    for (auto& t : ts) {
        t.join();
    }
    for (std::size_t i = 0; i <= std::size(bounds); ++i) {
        EXPECT_EQ(four.bucket_count(i), one.bucket_count(i)) << "bucket " << i;
    }
    EXPECT_EQ(four.total_count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(four.sum(), one.sum());

    four.reset();
    for (std::size_t i = 0; i <= std::size(bounds); ++i) {
        EXPECT_EQ(four.bucket_count(i), 0u) << "bucket " << i;
    }
    EXPECT_EQ(four.total_count(), 0u);
    EXPECT_EQ(four.sum(), 0.0);
}

} // namespace
} // namespace igs::telemetry
