#include "support/telemetry.h"

#include "support/logging.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

namespace ark::telemetry {

namespace detail {

std::atomic<bool> metricsOn{false};
std::atomic<bool> tracingOn{false};

std::uint64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             epoch)
            .count());
}

} // namespace detail

void
setMetricsEnabled(bool on)
{
    detail::metricsOn.store(on, std::memory_order_relaxed);
}

void
setTracingEnabled(bool on)
{
    detail::tracingOn.store(on, std::memory_order_relaxed);
}

// --------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

struct Registry::Impl
{
    // deques-of-nodes via unique_ptr keep metric addresses stable
    // across registrations; the maps are only touched at bind time.
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::vector<std::pair<std::string, MetricsSnapshot::Kind>> order;
};

Registry::Registry() : impl_(new Impl) {}

Registry::~Registry()
{
    delete impl_;
}

Registry &
Registry::shared()
{
    static Registry *instance = new Registry; // never destroyed: metrics
                                              // may be touched by worker
                                              // threads during shutdown
    return *instance;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    support::panicIf(impl_->gauges.count(name) != 0 ||
                         impl_->histograms.count(name) != 0,
                     support::cat("telemetry metric '", name,
                                  "' already registered with another kind"));
    auto &slot = impl_->counters[name];
    if (!slot) {
        slot = std::make_unique<Counter>();
        impl_->order.emplace_back(name, MetricsSnapshot::Kind::Counter);
    }
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    support::panicIf(impl_->counters.count(name) != 0 ||
                         impl_->histograms.count(name) != 0,
                     support::cat("telemetry metric '", name,
                                  "' already registered with another kind"));
    auto &slot = impl_->gauges[name];
    if (!slot) {
        slot = std::make_unique<Gauge>();
        impl_->order.emplace_back(name, MetricsSnapshot::Kind::Gauge);
    }
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    support::panicIf(impl_->counters.count(name) != 0 ||
                         impl_->gauges.count(name) != 0,
                     support::cat("telemetry metric '", name,
                                  "' already registered with another kind"));
    auto &slot = impl_->histograms[name];
    if (!slot) {
        slot = std::make_unique<Histogram>();
        impl_->order.emplace_back(name, MetricsSnapshot::Kind::Histogram);
    }
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    MetricsSnapshot snap;
    snap.entries.reserve(impl_->order.size());
    for (const auto &[name, kind] : impl_->order) {
        MetricsSnapshot::Entry entry;
        entry.name = name;
        entry.kind = kind;
        switch (kind) {
        case MetricsSnapshot::Kind::Counter:
            entry.value =
                static_cast<double>(impl_->counters.at(name)->value());
            break;
        case MetricsSnapshot::Kind::Gauge:
            entry.value = impl_->gauges.at(name)->value();
            break;
        case MetricsSnapshot::Kind::Histogram: {
            const Histogram &h = *impl_->histograms.at(name);
            entry.count = h.count();
            entry.sum = h.sum();
            entry.value = static_cast<double>(entry.count);
            entry.buckets = h.bucketCounts();
            while (!entry.buckets.empty() && entry.buckets.back() == 0)
                entry.buckets.pop_back();
            entry.p50 = histogramQuantile(entry.buckets, 0.50);
            entry.p95 = histogramQuantile(entry.buckets, 0.95);
            entry.p99 = histogramQuantile(entry.buckets, 0.99);
            break;
        }
        }
        snap.entries.push_back(std::move(entry));
    }
    return snap;
}

void
Registry::resetValues()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (auto &[name, c] : impl_->counters)
        c->reset();
    for (auto &[name, g] : impl_->gauges)
        g->reset();
    for (auto &[name, h] : impl_->histograms)
        h->reset();
}

namespace {

/** Shortest round-trippable formatting for snapshot values. */
std::string
formatNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer a compact form when it round-trips exactly.
    char shortBuf[32];
    std::snprintf(shortBuf, sizeof(shortBuf), "%g", v);
    double back = 0.0;
    if (std::sscanf(shortBuf, "%lf", &back) == 1 && back == v)
        return shortBuf;
    return buf;
}

/** Prometheus metric names allow [a-zA-Z0-9_:]; the dotted registry
 *  scheme maps onto it by swapping every other character for '_'. */
std::string
promName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

/** Upper bound of power-of-two bucket b: bucket 0 holds {0}, bucket b
 *  holds [2^(b-1), 2^b - 1]. */
std::uint64_t
bucketUpperBound(std::size_t b)
{
    if (b == 0)
        return 0;
    if (b >= 64)
        return ~0ull;
    return (1ull << b) - 1;
}

} // namespace

std::string
detail::escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

double
histogramQuantile(const std::vector<std::uint64_t> &buckets, double q)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : buckets)
        total += c;
    if (total == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    const double rank = q * static_cast<double>(total);
    double cumulative = 0.0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        const double before = cumulative;
        cumulative += static_cast<double>(buckets[b]);
        if (cumulative >= rank) {
            // Bucket 0 holds exactly {0}; bucket b holds
            // [2^(b-1), 2^b - 1].
            const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
            const double hi = b == 0 ? 0.0 : std::ldexp(1.0, b) - 1.0;
            double frac = (rank - before) /
                          static_cast<double>(buckets[b]);
            frac = std::min(std::max(frac, 0.0), 1.0);
            return lo + (hi - lo) * frac;
        }
    }
    // Unreachable when the counts sum to `total`, but stay defined.
    return std::ldexp(1.0, static_cast<int>(buckets.size())) - 1.0;
}

double
MetricsSnapshot::value(std::string_view name, double fallback) const
{
    for (const auto &entry : entries)
        if (entry.name == name)
            return entry.value;
    return fallback;
}

std::string
MetricsSnapshot::str() const
{
    std::ostringstream oss;
    for (const auto &entry : entries) {
        oss << entry.name << " = ";
        switch (entry.kind) {
        case Kind::Counter:
        case Kind::Gauge:
            oss << formatNumber(entry.value);
            break;
        case Kind::Histogram: {
            const double mean =
                entry.count == 0
                    ? 0.0
                    : static_cast<double>(entry.sum) /
                          static_cast<double>(entry.count);
            oss << entry.count << " samples, sum " << entry.sum << ", mean "
                << formatNumber(mean) << ", p50 " << formatNumber(entry.p50)
                << ", p95 " << formatNumber(entry.p95) << ", p99 "
                << formatNumber(entry.p99);
            break;
        }
        }
        oss << "\n";
    }
    return oss.str();
}

std::string
MetricsSnapshot::json() const
{
    std::ostringstream oss;
    oss << "{";
    bool first = true;
    for (const auto &entry : entries) {
        if (!first)
            oss << ",";
        first = false;
        oss << "\"" << detail::escapeJson(entry.name) << "\":";
        switch (entry.kind) {
        case Kind::Counter:
        case Kind::Gauge:
            oss << formatNumber(entry.value);
            break;
        case Kind::Histogram: {
            const double mean =
                entry.count == 0
                    ? 0.0
                    : static_cast<double>(entry.sum) /
                          static_cast<double>(entry.count);
            oss << "{\"count\":" << entry.count << ",\"sum\":" << entry.sum
                << ",\"mean\":" << formatNumber(mean)
                << ",\"p50\":" << formatNumber(entry.p50)
                << ",\"p95\":" << formatNumber(entry.p95)
                << ",\"p99\":" << formatNumber(entry.p99)
                << ",\"buckets\":[";
            for (std::size_t i = 0; i < entry.buckets.size(); ++i) {
                if (i != 0)
                    oss << ",";
                oss << entry.buckets[i];
            }
            oss << "]}";
            break;
        }
        }
    }
    oss << "}";
    return oss.str();
}

std::string
MetricsSnapshot::prometheus() const
{
    std::ostringstream oss;
    for (const auto &entry : entries) {
        const std::string name = promName(entry.name);
        switch (entry.kind) {
        case Kind::Counter:
        case Kind::Gauge:
            oss << "# TYPE " << name
                << (entry.kind == Kind::Counter ? " counter\n" : " gauge\n")
                << name << " " << formatNumber(entry.value) << "\n";
            break;
        case Kind::Histogram: {
            oss << "# TYPE " << name << " histogram\n";
            std::uint64_t cumulative = 0;
            for (std::size_t b = 0; b < entry.buckets.size(); ++b) {
                cumulative += entry.buckets[b];
                oss << name << "_bucket{le=\"" << bucketUpperBound(b)
                    << "\"} " << cumulative << "\n";
            }
            oss << name << "_bucket{le=\"+Inf\"} " << entry.count << "\n"
                << name << "_sum " << entry.sum << "\n"
                << name << "_count " << entry.count << "\n";
            break;
        }
        }
    }
    return oss.str();
}

// --------------------------------------------------------------------
// Trace spans
// --------------------------------------------------------------------

namespace {

struct TraceEvent
{
    const char *name;
    std::uint64_t startNs;
    std::uint64_t endNs;
    std::uint64_t arg;
    bool hasArg;
};

/**
 * One bounded span buffer per recording thread. Each buffer has its
 * own mutex so recording threads never contend with each other — only
 * with the (rare) exporter. Buffers are registered once per thread
 * and kept alive by shared_ptr so export works even after the thread
 * exits.
 */
struct ThreadBuffer
{
    static constexpr std::size_t kCapacity = 1u << 16;

    std::mutex mutex;
    int tid;
    std::vector<TraceEvent> events;

    explicit ThreadBuffer(int id) : tid(id) { events.reserve(256); }
};

struct TraceState
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    int nextTid = 1;
    std::atomic<std::uint64_t> dropped{0};
};

TraceState &
traceState()
{
    static TraceState *state = new TraceState; // intentionally leaked:
                                               // threads may record
                                               // during static teardown
    return *state;
}

ThreadBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
        TraceState &state = traceState();
        std::lock_guard<std::mutex> lock(state.mutex);
        auto buf = std::make_shared<ThreadBuffer>(state.nextTid++);
        state.buffers.push_back(buf);
        return buf;
    }();
    return *buffer;
}

} // namespace

namespace detail {

void
recordSpan(const char *name, std::uint64_t startNs, std::uint64_t endNs,
           std::uint64_t arg, bool hasArg)
{
    ThreadBuffer &buf = threadBuffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.events.size() >= ThreadBuffer::kCapacity) {
        traceState().dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buf.events.push_back({name, startNs, endNs, arg, hasArg});
}

} // namespace detail

void
clearTrace()
{
    TraceState &state = traceState();
    std::lock_guard<std::mutex> lock(state.mutex);
    for (auto &buf : state.buffers) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        buf->events.clear();
    }
    state.dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t
droppedSpans()
{
    return traceState().dropped.load(std::memory_order_relaxed);
}

void
writeChromeTrace(std::ostream &out)
{
    struct Flat
    {
        TraceEvent event;
        int tid;
    };
    std::vector<Flat> all;
    {
        TraceState &state = traceState();
        std::lock_guard<std::mutex> lock(state.mutex);
        for (auto &buf : state.buffers) {
            std::lock_guard<std::mutex> bufLock(buf->mutex);
            for (const TraceEvent &event : buf->events)
                all.push_back({event, buf->tid});
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Flat &a, const Flat &b) {
                         return a.event.startNs < b.event.startNs;
                     });

    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const Flat &flat : all) {
        if (!first)
            out << ",";
        first = false;
        const TraceEvent &e = flat.event;
        // Chrome trace timestamps are microseconds; keep sub-µs
        // resolution with fractional values.
        const double ts = static_cast<double>(e.startNs) / 1000.0;
        const double dur =
            static_cast<double>(e.endNs - e.startNs) / 1000.0;
        out << "{\"name\":\"" << detail::escapeJson(e.name)
            << "\",\"cat\":\"ark\",\"ph\":\"X\",\"ts\":" << formatNumber(ts)
            << ",\"dur\":" << formatNumber(dur)
            << ",\"pid\":1,\"tid\":" << flat.tid;
        if (e.hasArg)
            out << ",\"args\":{\"v\":" << e.arg << "}";
        out << "}";
    }
    out << "]}\n";
}

TraceSession::TraceSession(std::string path)
    : path_(std::move(path)), previous_(tracingEnabled())
{
    clearTrace();
    setTracingEnabled(true);
}

TraceSession::~TraceSession()
{
    setTracingEnabled(previous_);
    std::ofstream out(path_);
    if (!out) {
        support::warn(support::cat("could not open trace file '", path_,
                                   "' for writing; trace discarded"));
        return;
    }
    writeChromeTrace(out);
    if (!out)
        support::warn(
            support::cat("error writing trace file '", path_, "'"));
    const std::uint64_t dropped = droppedSpans();
    if (dropped != 0)
        support::warn(support::cat("trace ring buffers overflowed: ",
                                   dropped, " spans dropped"));
}

} // namespace ark::telemetry
