/**
 * @file
 * perfbench: host benchmark of the real engine.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--scale full|tiny] [--trace-out <path>]
 *
 * Generates the workload's batches from the seed before any timer starts,
 * then runs the timed (--trace 0) or traced (--trace 1) measurement.  Prints
 * one `metric <name> <value> <unit>` line per metric, `detail` and `diag`
 * context lines, and as its last line one JSON object with the keys
 * correct, attempted, failed and metrics.  See README.md.
 */
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "host.h"
#include "workload.h"

namespace {

using perfbench::Metric;
using perfbench::Report;

/** Two threads: the ingest caller plus one worker. */
constexpr std::size_t kPoolThreads = 2;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    perfbench::Scale scale = perfbench::Scale::kFull;
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale full|tiny] "
                 "[--trace-out <path>]\nworkloads:";
    for (const std::string& n : perfbench::workload_names()) {
        std::cerr << " " << n;
    }
    std::cerr << "\n";
    std::exit(2);
}

Args
parse(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                a.trace = std::stoi(value) != 0;
            } else if (flag == "--scale") {
                if (value != "full" && value != "tiny") {
                    usage("--scale must be full or tiny");
                }
                a.scale = value == "tiny" ? perfbench::Scale::kTiny
                                          : perfbench::Scale::kFull;
            } else if (flag == "--trace-out") {
                a.trace_out = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (a.workload.empty()) {
        usage("--workload is required");
    }
    if (!(a.seconds > 0 && a.seconds <= 600)) {
        usage("--seconds must be in (0, 600]");
    }
    return a;
}

/** Shortest text that reads back as exactly `v`; JSON null if not finite
 *  (such a run also fails a result check). */
std::string
number(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

void
print_line(const char* kind, const std::string& name, double value,
           const std::string& unit)
{
    std::cout << kind << " " << name << " " << number(value) << " " << unit
              << "\n";
}

std::string
json(const Report& r)
{
    std::string s = "{\"correct\": ";
    s += r.failed == 0 && r.attempted > 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
             number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}}";
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parse(argc, argv);

    const double load = perfbench::load_average();
    const std::uint64_t steal0 = perfbench::steal_ticks();
    const double walk_before = perfbench::memory_walk_ms();

    perfbench::Workload w;
    try {
        w = perfbench::make_workload(args.workload, args.seed, args.seconds,
                                     args.scale);
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    }
    std::cout << "# perfbench workload=" << w.name << " seed=" << args.seed
              << " trace=" << (args.trace ? 1 : 0) << " scale="
              << (args.scale == perfbench::Scale::kTiny ? "tiny" : "full")
              << " bulk_batches=" << w.bulk.size()
              << " warmup_batches=" << w.warmup.size()
              << " stream_batches=" << w.stream.size()
              << " batch_edges=" << w.batch_size
              << " pool_threads=" << kPoolThreads << "\n";

    igs::ThreadPool pool(kPoolThreads);
    Report report = args.trace ? perfbench::run_traced(w, pool, args.trace_out)
                               : perfbench::run_timed(w, pool);
    for (const Metric& m : report.metrics) {
        report.check(std::isfinite(m.value), m.name + " is a finite number");
    }

    report.detail("failed_share",
                  report.attempted == 0
                      ? 1.0
                      : static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted),
                  "share");

    for (const Metric& m : report.metrics) {
        print_line("metric", m.name, m.value, m.unit);
    }
    for (const Metric& m : report.details) {
        print_line("detail", m.name, m.value, m.unit);
    }
    print_line("diag", "load_avg_1m", load, "load");
    print_line("diag", "steal_ticks",
               static_cast<double>(perfbench::steal_ticks() - steal0),
               "ticks");
    print_line("diag", "memory_walk_ms.before", walk_before, "ms");
    print_line("diag", "memory_walk_ms.after", perfbench::memory_walk_ms(),
               "ms");
    std::cout << json(report) << std::endl;
    return 0;
}
