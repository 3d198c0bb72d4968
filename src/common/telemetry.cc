#include "common/telemetry.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace igs::telemetry {

// ----------------------------------------------------------------- counter

std::size_t
Counter::shard_index() noexcept
{
    // Threads are striped over shards round-robin at first use; the slot
    // is computed once per thread, so inc() is one TLS read + fetch_add.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return slot;
}

// --------------------------------------------------------------- histogram

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      lines_per_shard_((bounds.size() + 2 + Line::kCells - 1) / Line::kCells),
      lines_(Counter::kShards * lines_per_shard_)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        IGS_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                      "histogram bounds must be strictly increasing");
    }
}

std::uint64_t
Histogram::bucket_count(std::size_t i) const
{
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < Counter::kShards; ++s) {
        n += cell(s, i).load(std::memory_order_relaxed);
    }
    return n;
}

std::uint64_t
Histogram::total_count() const
{
    std::uint64_t t = 0;
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        t += bucket_count(i);
    }
    return t;
}

double
Histogram::sum() const
{
    double total = 0.0;
    for (std::size_t s = 0; s < Counter::kShards; ++s) {
        total += std::bit_cast<double>(
            cell(s, sum_cell()).load(std::memory_order_relaxed));
    }
    return total;
}

void
Histogram::reset() noexcept
{
    for (Line& line : lines_) {
        for (auto& c : line.cells) {
            c.store(0, std::memory_order_relaxed);
        }
    }
}

// ---------------------------------------------------------------- registry

Registry&
Registry::global()
{
    static Registry r;
    return r;
}

void
Registry::check_name_free(const std::string& name, Kind want) const
{
    const bool taken =
        (want != Kind::kCounter && counters_.count(name) != 0) ||
        (want != Kind::kGauge && gauges_.count(name) != 0) ||
        (want != Kind::kHistogram && histograms_.count(name) != 0) ||
        (want != Kind::kPhase && phases_.count(name) != 0);
    IGS_CHECK_MSG(!taken, "telemetry metric registered under two types");
}

Counter&
Registry::counter(std::string_view name)
{
    MutexLock lk(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        std::string key(name);
        check_name_free(key, Kind::kCounter);
        it = counters_.emplace(std::move(key), std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Gauge&
Registry::gauge(std::string_view name)
{
    MutexLock lk(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        std::string key(name);
        check_name_free(key, Kind::kGauge);
        it = gauges_.emplace(std::move(key), std::make_unique<Gauge>()).first;
    }
    return *it->second;
}

Histogram&
Registry::histogram(std::string_view name, std::span<const double> bounds)
{
    MutexLock lk(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        std::string key(name);
        check_name_free(key, Kind::kHistogram);
        it = histograms_
                 .emplace(std::move(key), std::make_unique<Histogram>(bounds))
                 .first;
    } else {
        const auto& have = it->second->bounds();
        IGS_CHECK_MSG(have.size() == bounds.size() &&
                          std::equal(have.begin(), have.end(),
                                     bounds.begin()),
                      "histogram re-registered with different bounds");
    }
    return *it->second;
}

PhaseTimer&
Registry::phase(std::string_view name)
{
    MutexLock lk(mu_);
    auto it = phases_.find(name);
    if (it == phases_.end()) {
        std::string key(name);
        check_name_free(key, Kind::kPhase);
        it = phases_.emplace(std::move(key), std::make_unique<PhaseTimer>())
                 .first;
    }
    return *it->second;
}

void
Registry::reset_values()
{
    MutexLock lk(mu_);
    for (auto& [_, c] : counters_) {
        c->reset();
    }
    for (auto& [_, g] : gauges_) {
        g->reset();
    }
    for (auto& [_, h] : histograms_) {
        h->reset();
    }
    for (auto& [_, p] : phases_) {
        p->reset();
    }
}

std::string
Registry::to_json(int indent) const
{
    MutexLock lk(mu_);
    JsonWriter w(indent);
    w.begin_object();

    w.key("counters").begin_object();
    for (const auto& [name, c] : counters_) {
        w.kv(name, c->value());
    }
    w.end_object();

    w.key("gauges").begin_object();
    for (const auto& [name, g] : gauges_) {
        w.kv(name, g->value());
    }
    w.end_object();

    w.key("histograms").begin_object();
    for (const auto& [name, h] : histograms_) {
        w.key(name).begin_object();
        w.key("bounds").begin_array();
        for (double b : h->bounds()) {
            w.value(b);
        }
        w.end_array();
        w.key("counts").begin_array();
        for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
            w.value(h->bucket_count(i));
        }
        w.end_array();
        w.kv("count", h->total_count());
        w.kv("sum", h->sum());
        w.end_object();
    }
    w.end_object();

    w.key("phases").begin_object();
    for (const auto& [name, p] : phases_) {
        w.key(name).begin_object();
        w.kv("seconds", p->total_seconds());
        w.kv("count", p->count());
        w.end_object();
    }
    w.end_object();

    w.end_object();
    return w.take();
}

std::string
to_json(int indent)
{
    return Registry::global().to_json(indent);
}

// ------------------------------------------------------------- json writer

std::string
JsonWriter::format_double(double d)
{
    if (!std::isfinite(d)) {
        return "null";
    }
    // Shortest round-trip representation: stable across runs and gives
    // exact equality when the underlying bits are equal (golden runs).
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), d);
    std::string s(buf, res.ptr);
    // Keep integral doubles visibly floating ("3" -> "3.0") so JSON types
    // never flip between int and float across snapshots.
    if (s.find_first_of(".eEn") == std::string::npos) {
        s += ".0";
    }
    return s;
}

void
JsonWriter::newline_indent()
{
    if (indent_ <= 0) {
        return;
    }
    out_ += '\n';
    out_.append(scope_has_item_.size() * static_cast<std::size_t>(indent_),
                ' ');
}

void
JsonWriter::before_value()
{
    if (pending_key_) {
        pending_key_ = false;
        return;
    }
    if (!scope_has_item_.empty()) {
        if (scope_has_item_.back()) {
            out_ += ',';
        }
        scope_has_item_.back() = true;
        newline_indent();
    }
}

JsonWriter&
JsonWriter::begin_object()
{
    before_value();
    out_ += '{';
    scope_has_item_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::end_object()
{
    IGS_CHECK(!scope_has_item_.empty() && !pending_key_);
    const bool had = scope_has_item_.back();
    scope_has_item_.pop_back();
    if (had) {
        newline_indent();
    }
    out_ += '}';
    return *this;
}

JsonWriter&
JsonWriter::begin_array()
{
    before_value();
    out_ += '[';
    scope_has_item_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::end_array()
{
    IGS_CHECK(!scope_has_item_.empty() && !pending_key_);
    const bool had = scope_has_item_.back();
    scope_has_item_.pop_back();
    if (had) {
        newline_indent();
    }
    out_ += ']';
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view k)
{
    IGS_CHECK(!scope_has_item_.empty() && !pending_key_);
    if (scope_has_item_.back()) {
        out_ += ',';
    }
    scope_has_item_.back() = true;
    newline_indent();
    append_quoted(k);
    out_ += indent_ > 0 ? ": " : ":";
    pending_key_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(std::string_view s)
{
    before_value();
    append_quoted(s);
    return *this;
}

void
JsonWriter::append_quoted(std::string_view s)
{
    out_ += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out_ += "\\\"";
            break;
          case '\\':
            out_ += "\\\\";
            break;
          case '\n':
            out_ += "\\n";
            break;
          case '\r':
            out_ += "\\r";
            break;
          case '\t':
            out_ += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x",
                              static_cast<unsigned>(c));
                out_ += esc;
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
}

JsonWriter&
JsonWriter::value(double d)
{
    before_value();
    out_ += format_double(d);
    return *this;
}

JsonWriter&
JsonWriter::value(std::uint64_t u)
{
    before_value();
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), u);
    out_.append(buf, res.ptr);
    return *this;
}

JsonWriter&
JsonWriter::value(std::int64_t i)
{
    before_value();
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), i);
    out_.append(buf, res.ptr);
    return *this;
}

JsonWriter&
JsonWriter::value(bool b)
{
    before_value();
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::null()
{
    before_value();
    out_ += "null";
    return *this;
}

JsonWriter&
JsonWriter::raw(std::string_view json)
{
    before_value();
    out_ += json;
    return *this;
}

std::string
JsonWriter::take()
{
    IGS_CHECK_MSG(scope_has_item_.empty() && !pending_key_,
                  "JsonWriter::take with unclosed scopes");
    if (indent_ > 0) {
        out_ += '\n';
    }
    return std::move(out_);
}

} // namespace igs::telemetry
