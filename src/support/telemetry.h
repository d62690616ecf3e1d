#ifndef ARK_SUPPORT_TELEMETRY_H
#define ARK_SUPPORT_TELEMETRY_H

/**
 * @file
 * Engine-wide telemetry: a process-wide metrics registry plus scoped
 * trace spans exportable as Chrome trace-event JSON.
 *
 * The engine computes rich internals on every run — lane occupancy,
 * step-vote rejections, cache hits, LU refactor ratios, JIT
 * compiles — and a batch study needs them to explain where its time
 * went. This file makes that accounting a first-class subsystem with
 * two halves:
 *
 *  - **Metrics** (Counter / Gauge / Histogram, owned by Registry):
 *    monotonic counters, last-value gauges, and fixed-bucket
 *    power-of-two histograms, all updated with relaxed atomics.
 *    Instrumented code binds each metric once
 *    (`static Counter &c = Registry::shared().counter("ark.x.y");`)
 *    and then pays one relaxed atomic add per event — or one relaxed
 *    load when collection is off.
 *
 *  - **Trace spans** (ScopedSpan, recorded into per-thread ring
 *    buffers): RAII begin/end intervals attributed to the recording
 *    thread, exported by writeChromeTrace() / TraceSession as Chrome
 *    trace-event JSON that chrome://tracing and Perfetto load
 *    directly ("ph":"X" complete events).
 *
 * Metric names follow the `ark.<area>.<name>` scheme and every
 * instrumentation site costs one relaxed atomic load when collection
 * is off; docs/TELEMETRY.md is the authoritative reference for the
 * naming scheme, the snapshot formats (MetricsSnapshot::json() and
 * prometheus()), the RunLedger JSON schema, and the full overhead
 * contract. Telemetry never touches numerics: collection on
 * vs. off is bit-identical by construction (regression-tested in
 * telemetry_test).
 */

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ark::telemetry {

namespace detail {
extern std::atomic<bool> metricsOn;
extern std::atomic<bool> tracingOn;

/** Nanoseconds since the process-wide trace epoch (steady clock). */
std::uint64_t nowNs();

/** Appends one finished span to the calling thread's ring buffer. */
void recordSpan(const char *name, std::uint64_t startNs,
                std::uint64_t endNs, std::uint64_t arg, bool hasArg);

/** Escapes `s` for a JSON string literal (snapshots, traces, the
 *  run ledger). */
std::string escapeJson(const std::string &s);
} // namespace detail

/** @name Collection switches (both default off). @{ */
inline bool
metricsEnabled()
{
    return detail::metricsOn.load(std::memory_order_relaxed);
}

inline bool
tracingEnabled()
{
    return detail::tracingOn.load(std::memory_order_relaxed);
}

void setMetricsEnabled(bool on);
void setTracingEnabled(bool on);
/** @} */

/**
 * Monotonic counter. add() is one relaxed fetch_add when collection
 * is on, one relaxed load when off. Thread-safe; never negative.
 */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        if (metricsEnabled())
            value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    void reset() { value_.store(0, std::memory_order_relaxed); }

    std::atomic<std::uint64_t> value_{0};
};

/** Last-value gauge (occupancy, configured sizes). */
class Gauge
{
  public:
    void
    set(double v)
    {
        if (metricsEnabled())
            value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram over non-negative integer samples (latency
 * in ns, group sizes). Bucket b counts samples whose bit width is b —
 * i.e. sample v lands in bucket floor(log2(v)) + 1, with v == 0 in
 * bucket 0 — so the bucket boundaries are powers of two and recording
 * is branch-free bookkeeping on relaxed atomics. count/sum are exact;
 * the buckets give the shape.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    void
    record(std::uint64_t v)
    {
        if (!metricsEnabled())
            return;
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    }

    static std::size_t
    bucketOf(std::uint64_t v)
    {
        std::size_t b = 0;
        while (v != 0) {
            ++b;
            v >>= 1;
        }
        return b < kBuckets ? b : kBuckets - 1;
    }

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    /** Mean sample, 0 when empty. */
    double mean() const;
    /** Bucket counts (kBuckets entries). */
    std::vector<std::uint64_t> bucketCounts() const;

  private:
    friend class Registry;
    void reset();

    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/**
 * Interpolated quantile estimate (q in [0, 1]) from power-of-two
 * bucket counts (Histogram::bucketOf layout). The estimate is exact
 * at bucket boundaries and linearly interpolated within a bucket's
 * [2^(b-1), 2^b - 1] span; 0 when the histogram is empty.
 */
double histogramQuantile(const std::vector<std::uint64_t> &buckets,
                         double q);

/**
 * Point-in-time copy of every registered metric, in registration
 * order. `value` is the counter value, the gauge value, or the
 * histogram count; histograms additionally carry sum/mean/buckets
 * and interpolated p50/p95/p99 estimates.
 */
struct MetricsSnapshot
{
    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    struct Entry
    {
        std::string name;
        Kind kind = Kind::Counter;
        double value = 0.0;
        std::uint64_t count = 0; ///< Histogram samples.
        std::uint64_t sum = 0;   ///< Histogram sample sum.
        std::vector<std::uint64_t> buckets; ///< Histogram shape
                                            ///< (trailing zeros trimmed).
        double p50 = 0.0; ///< Histogram quantile estimates
        double p95 = 0.0; ///< (histogramQuantile over `buckets`).
        double p99 = 0.0;
    };

    std::vector<Entry> entries;

    /** Value of a named metric, or `fallback` when absent. */
    double value(std::string_view name, double fallback = 0.0) const;

    /** Human-readable table, one metric per line. */
    std::string str() const;

    /** Flat JSON object: name -> number, histograms -> object. */
    std::string json() const;

    /**
     * Prometheus text exposition (version 0.0.4): one `# TYPE` line
     * per metric, names with every character outside
     * [a-zA-Z0-9_:] mapped to '_' (a leading digit gains a '_'
     * prefix), histograms as cumulative `_bucket{le="..."}` series
     * over the power-of-two bounds plus `+Inf`, then `_sum` and
     * `_count`.
     */
    std::string prometheus() const;
};

/**
 * Process-wide metric registry. Registration (counter/gauge/
 * histogram) is mutex-protected and idempotent per name; the returned
 * references are stable for the process lifetime, so hot paths bind
 * them once into function-local statics. A name registered as one
 * kind and requested as another panics — the naming scheme is an API.
 */
class Registry
{
  public:
    static Registry &shared();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Copies every metric (relaxed reads; consistent enough for
     *  reporting, not a linearizable cut). */
    MetricsSnapshot snapshot() const;

    /** Zeroes every metric value; registrations remain. */
    void resetValues();

  private:
    Registry();
    ~Registry();
    struct Impl;
    Impl *impl_;
};

/**
 * RAII trace span. Construction snapshots the clock when tracing is
 * on (and is a single relaxed load when off); destruction appends a
 * complete event to the calling thread's ring buffer. The name must
 * be a string literal (the buffer stores the pointer). An optional
 * integer argument (lane count, batch size) is exported under
 * "args".
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : ScopedSpan(name, 0, false) {}

    ScopedSpan(const char *name, std::uint64_t arg)
        : ScopedSpan(name, arg, true)
    {
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Sets/overwrites the exported argument after construction
     *  (e.g. hit/miss known only at the end of the span). */
    void
    setArg(std::uint64_t arg)
    {
        arg_ = arg;
        hasArg_ = true;
    }

    ~ScopedSpan()
    {
        if (name_ != nullptr)
            detail::recordSpan(name_, start_, detail::nowNs(), arg_,
                               hasArg_);
    }

  private:
    ScopedSpan(const char *name, std::uint64_t arg, bool hasArg)
        : name_(tracingEnabled() ? name : nullptr),
          start_(name_ ? detail::nowNs() : 0), arg_(arg), hasArg_(hasArg)
    {
    }

    const char *name_;
    std::uint64_t start_;
    std::uint64_t arg_;
    bool hasArg_;
};

/**
 * RAII histogram timer: records the scope's duration in nanoseconds.
 * Inert (one relaxed load) when collection is off at construction.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &hist)
        : hist_(metricsEnabled() ? &hist : nullptr),
          start_(hist_ ? detail::nowNs() : 0)
    {
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        if (hist_ != nullptr)
            hist_->record(detail::nowNs() - start_);
    }

  private:
    Histogram *hist_;
    std::uint64_t start_;
};

/** Drops every recorded span (buffers stay registered). */
void clearTrace();

/** Spans dropped because a thread's ring buffer filled up. */
std::uint64_t droppedSpans();

/**
 * Writes every recorded span as Chrome trace-event JSON
 * (chrome://tracing, Perfetto): {"traceEvents": [{"ph":"X", ...}]},
 * timestamps in microseconds since the process trace epoch, one tid
 * per recording thread, sorted by start time.
 */
void writeChromeTrace(std::ostream &out);

/**
 * RAII trace recording session: clears the span buffers and enables
 * tracing on construction; on destruction restores the previous
 * tracing state and writes the collected spans to `path` as Chrome
 * trace JSON (a write failure warns and keeps going — tracing must
 * never take down the run it observes).
 */
class TraceSession
{
  public:
    explicit TraceSession(std::string path);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

  private:
    std::string path_;
    bool previous_;
};

} // namespace ark::telemetry

#endif // ARK_SUPPORT_TELEMETRY_H
