/**
 * @file
 * Tests for the telemetry subsystem: counter/histogram correctness
 * under concurrent writers, span nesting and thread attribution,
 * Chrome-trace JSON validity, the spice family a cached session sweep
 * records, the non-interference contract (collection on vs. off is
 * bit-identical), and whole timestamped log lines under concurrent
 * warnings.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.h"
#include "engine/session.h"
#include "lang/registry.h"
#include "sim/sim.h"
#include "spice/batch.h"
#include "spice/netlist.h"
#include "support/ledger.h"
#include "support/logging.h"
#include "support/telemetry.h"

#include "json_checker.h"

namespace {

using namespace ark;
using telemetry::Registry;
using testutil::JsonChecker;

/** Restores both collection switches and clears the trace on exit so
 *  tests cannot leak enabled telemetry into each other. */
struct TelemetryGuard
{
    TelemetryGuard()
        : metrics_(telemetry::metricsEnabled()),
          tracing_(telemetry::tracingEnabled())
    {
    }

    ~TelemetryGuard()
    {
        telemetry::setMetricsEnabled(metrics_);
        telemetry::setTracingEnabled(tracing_);
        telemetry::clearTrace();
    }

    bool metrics_;
    bool tracing_;
};

TEST(TelemetryTest, CounterConcurrentWritersAreExact)
{
    TelemetryGuard guard;
    telemetry::setMetricsEnabled(true);
    telemetry::Counter &counter =
        Registry::shared().counter("ark.test.concurrent_counter");
    const std::uint64_t before = counter.value();

    constexpr int kThreads = 8;
    constexpr std::uint64_t kAddsPerThread = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kAddsPerThread; ++i)
                counter.add();
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(counter.value() - before, kThreads * kAddsPerThread);
}

TEST(TelemetryTest, HistogramConcurrentWritersAreExact)
{
    TelemetryGuard guard;
    telemetry::setMetricsEnabled(true);
    telemetry::Histogram &hist =
        Registry::shared().histogram("ark.test.concurrent_hist");
    const std::uint64_t countBefore = hist.count();
    const std::uint64_t sumBefore = hist.sum();

    constexpr int kThreads = 8;
    constexpr std::uint64_t kSamplesPerThread = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, t] {
            for (std::uint64_t i = 0; i < kSamplesPerThread; ++i)
                hist.record(i % 1000 + static_cast<std::uint64_t>(t));
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(hist.count() - countBefore, kThreads * kSamplesPerThread);
    EXPECT_GT(hist.sum(), sumBefore);

    std::uint64_t bucketTotal = 0;
    for (std::uint64_t b : hist.bucketCounts())
        bucketTotal += b;
    EXPECT_EQ(bucketTotal, hist.count());
}

TEST(TelemetryTest, BucketOfMatchesBitWidth)
{
    using telemetry::Histogram;
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~0ull), Histogram::kBuckets - 1);
}

TEST(TelemetryTest, DisabledCollectionIsInert)
{
    TelemetryGuard guard;
    telemetry::setMetricsEnabled(false);
    telemetry::setTracingEnabled(false);

    telemetry::Counter &counter =
        Registry::shared().counter("ark.test.inert_counter");
    telemetry::Gauge &gauge =
        Registry::shared().gauge("ark.test.inert_gauge");
    telemetry::Histogram &hist =
        Registry::shared().histogram("ark.test.inert_hist");
    const std::uint64_t counterBefore = counter.value();
    const std::uint64_t histBefore = hist.count();

    counter.add(42);
    gauge.set(3.5);
    hist.record(7);
    {
        telemetry::ScopedSpan span("ark.test.inert_span", 1);
    }

    EXPECT_EQ(counter.value(), counterBefore);
    EXPECT_EQ(gauge.value(), 0.0);
    EXPECT_EQ(hist.count(), histBefore);

    std::ostringstream trace;
    telemetry::writeChromeTrace(trace);
    EXPECT_EQ(trace.str().find("ark.test.inert_span"), std::string::npos);
}

/** One complete ("X") event of an exported Chrome trace. */
struct Event
{
    std::string name;
    double ts;
    double dur;
    int tid;
};

/** Pulls (name, ts, dur, tid) out of the trace via the event regex. */
std::vector<Event>
traceEvents(const std::string &trace)
{
    std::regex eventRe("\\{\"name\":\"([^\"]+)\",\"cat\":\"ark\","
                       "\"ph\":\"X\",\"ts\":([0-9.eE+-]+),"
                       "\"dur\":([0-9.eE+-]+),\"pid\":1,"
                       "\"tid\":([0-9]+)");
    std::vector<Event> events;
    for (std::sregex_iterator it(trace.begin(), trace.end(), eventRe),
         end;
         it != end; ++it) {
        events.push_back({(*it)[1], std::stod((*it)[2]),
                          std::stod((*it)[3]), std::stoi((*it)[4])});
    }
    return events;
}

TEST(TelemetryTest, SpanNestingAndThreadAttribution)
{
    TelemetryGuard guard;
    telemetry::clearTrace();
    telemetry::setTracingEnabled(true);

    {
        telemetry::ScopedSpan outer("ark.test.outer", 2);
        telemetry::ScopedSpan inner("ark.test.inner");
    }
    std::thread([] {
        telemetry::ScopedSpan span("ark.test.other_thread");
    }).join();
    telemetry::setTracingEnabled(false);

    std::ostringstream out;
    telemetry::writeChromeTrace(out);
    const std::string trace = out.str();

    const std::vector<Event> events = traceEvents(trace);

    const Event *outer = nullptr;
    const Event *inner = nullptr;
    const Event *other = nullptr;
    for (const Event &event : events) {
        if (event.name == "ark.test.outer")
            outer = &event;
        else if (event.name == "ark.test.inner")
            inner = &event;
        else if (event.name == "ark.test.other_thread")
            other = &event;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(other, nullptr);

    // The inner span nests within the outer interval.
    EXPECT_GE(inner->ts, outer->ts);
    EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + 1e-3);
    EXPECT_EQ(inner->tid, outer->tid);
    // The second thread records under its own tid.
    EXPECT_NE(other->tid, outer->tid);
    // The outer span exports its argument.
    EXPECT_NE(trace.find("\"args\":{\"v\":2}"), std::string::npos);
}

TEST(TelemetryTest, ChromeTraceJsonRoundTrips)
{
    TelemetryGuard guard;
    telemetry::clearTrace();
    telemetry::setTracingEnabled(true);
    {
        telemetry::ScopedSpan a("ark.test.json_a", 7);
        telemetry::ScopedSpan b("ark.test.json_b");
    }
    telemetry::setTracingEnabled(false);

    std::ostringstream out;
    telemetry::writeChromeTrace(out);
    std::string trace = out.str();

    JsonChecker checker(trace);
    EXPECT_TRUE(checker.valid()) << trace;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("ark.test.json_a"), std::string::npos);
    EXPECT_NE(trace.find("ark.test.json_b"), std::string::npos);

    // The metrics snapshot JSON round-trips too.
    telemetry::setMetricsEnabled(true);
    Registry::shared().counter("ark.test.json_counter").add(3);
    Registry::shared().histogram("ark.test.json_hist").record(12);
    std::string snapshot = Registry::shared().snapshot().json();
    telemetry::setMetricsEnabled(false);
    JsonChecker snapshotChecker(snapshot);
    EXPECT_TRUE(snapshotChecker.valid()) << snapshot;
}

TEST(TelemetryTest, TraceSessionWritesFile)
{
    TelemetryGuard guard;
    const std::string path =
        testing::TempDir() + "/telemetry_test.trace.json";
    {
        telemetry::TraceSession session(path);
        telemetry::ScopedSpan span("ark.test.session_span");
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();
    JsonChecker checker(content);
    EXPECT_TRUE(checker.valid()) << content;
    EXPECT_NE(content.find("ark.test.session_span"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TelemetryTest, MetricsSnapshotLookupAndNaming)
{
    TelemetryGuard guard;
    telemetry::setMetricsEnabled(true);
    telemetry::Counter &counter =
        Registry::shared().counter("ark.test.lookup");
    const std::uint64_t before = counter.value();
    counter.add(5);

    telemetry::MetricsSnapshot snap = Registry::shared().snapshot();
    EXPECT_EQ(snap.value("ark.test.lookup"),
              static_cast<double>(before + 5));
    EXPECT_EQ(snap.value("ark.test.no_such_metric", -1.0), -1.0);

    // Every registered metric follows the ark.<area>.<name> scheme.
    for (const telemetry::MetricsSnapshot::Entry &entry : snap.entries) {
        EXPECT_EQ(entry.name.rfind("ark.", 0), 0u)
            << "metric '" << entry.name
            << "' violates the naming scheme";
        EXPECT_GT(entry.name.find('.', 4), 4u) << entry.name;
    }

    EXPECT_NE(snap.str().find("ark.test.lookup"), std::string::npos);
}

TEST(TelemetryTest, PrometheusExpositionRendersEveryKind)
{
    using Kind = telemetry::MetricsSnapshot::Kind;
    telemetry::MetricsSnapshot snap;
    telemetry::MetricsSnapshot::Entry counter;
    counter.name = "ark.sim.instances";
    counter.kind = Kind::Counter;
    counter.value = 1234567.0;
    telemetry::MetricsSnapshot::Entry gauge;
    gauge.name = "9lives.cache-size/x";
    gauge.kind = Kind::Gauge;
    gauge.value = 0.25;
    telemetry::MetricsSnapshot::Entry histogram;
    histogram.name = "ark.spice.factor_ns";
    histogram.kind = Kind::Histogram;
    // Buckets {0}, [1, 1], [2, 3] and [4, 7].
    histogram.buckets = {1, 0, 2, 3};
    histogram.count = 6;
    // 2^53 + 1 has no double: the sum must print from the integer.
    histogram.sum = (std::uint64_t{1} << 53) + 1;
    snap.entries = {counter, gauge, histogram};

    // One # TYPE line per family; '.', '-' and '/' map to '_' and a
    // leading digit gains a '_' prefix; the buckets are cumulative and
    // the +Inf bucket equals _count.
    EXPECT_EQ(snap.prometheus(),
              "# TYPE ark_sim_instances counter\n"
              "ark_sim_instances 1234567\n"
              "# TYPE _9lives_cache_size_x gauge\n"
              "_9lives_cache_size_x 0.25\n"
              "# TYPE ark_spice_factor_ns histogram\n"
              "ark_spice_factor_ns_bucket{le=\"0\"} 1\n"
              "ark_spice_factor_ns_bucket{le=\"1\"} 1\n"
              "ark_spice_factor_ns_bucket{le=\"3\"} 3\n"
              "ark_spice_factor_ns_bucket{le=\"7\"} 6\n"
              "ark_spice_factor_ns_bucket{le=\"+Inf\"} 6\n"
              "ark_spice_factor_ns_sum 9007199254740993\n"
              "ark_spice_factor_ns_count 6\n");
}

/** Sample count of histogram `name` (0 when never registered). */
std::uint64_t
histogramCount(const telemetry::MetricsSnapshot &snap,
               const std::string &name)
{
    for (const telemetry::MetricsSnapshot::Entry &entry : snap.entries)
        if (entry.name == name)
            return entry.count;
    return 0;
}

/** RC ladder of `sections` nodes driven by a current source at its
 *  far end; the structure depends on `sections` only. */
spice::Netlist
rcLadder(int sections, double ohms)
{
    spice::Netlist netlist;
    int previous = spice::kGround;
    for (int k = 0; k < sections; ++k) {
        const std::string id = std::to_string(k);
        int node = netlist.addNode("v" + id);
        netlist.resistor("R" + id, node, previous, ohms);
        netlist.capacitor("C" + id, node, spice::kGround, 1e-9);
        previous = node;
    }
    netlist.currentSource("I", spice::kGround, previous, 1e-3);
    return netlist;
}

TEST(TelemetryTest, CachedSessionSweepRecordsSpiceFamily)
{
    TelemetryGuard guard;
    // N = 5 netlists in G = 2 structure groups, all values distinct.
    std::vector<spice::Netlist> cells;
    for (double ohms : {0.5e3, 1.0e3, 2.0e3})
        cells.push_back(rcLadder(1, ohms));
    for (double ohms : {0.5e3, 1.0e3})
        cells.push_back(rcLadder(2, ohms));
    std::vector<const spice::Netlist *> netlists;
    for (const spice::Netlist &cell : cells)
        netlists.push_back(&cell);
    const std::size_t groups = 2;

    engine::ArtifactCache cache;
    engine::Session session(
        engine::SessionOptions{.caching = true, .cache = &cache});
    telemetry::clearTrace();
    telemetry::setMetricsEnabled(true);
    telemetry::setTracingEnabled(true);
    const telemetry::MetricsSnapshot before = Registry::shared().snapshot();
    engine::SweepStats stats;
    std::vector<spice::TransientResult> results =
        session.runSweep(netlists, 0.0, 5e-6, 1e-8,
                         spice::TransientBatchOptions{}, &stats);
    const telemetry::MetricsSnapshot after = Registry::shared().snapshot();
    telemetry::setMetricsEnabled(false);
    telemetry::setTracingEnabled(false);

    for (const spice::TransientResult &result : results)
        ASSERT_TRUE(result.ok());
    EXPECT_EQ(stats.structureGroups, groups);
    EXPECT_EQ(stats.factorMisses, netlists.size()); // cold cache

    const auto delta = [&](const char *name) {
        return after.value(name) - before.value(name);
    };
    EXPECT_EQ(delta("ark.spice.sweeps"), 1.0);
    EXPECT_EQ(delta("ark.spice.sweep_instances"),
              static_cast<double>(netlists.size()));
    EXPECT_EQ(delta("ark.spice.groups"), static_cast<double>(groups));
    EXPECT_EQ(histogramCount(after, "ark.spice.group_size") -
                  histogramCount(before, "ark.spice.group_size"),
              groups);

    // Exactly one engine sweep span, nested in the session's.
    std::ostringstream out;
    telemetry::writeChromeTrace(out);
    const std::vector<Event> events = traceEvents(out.str());
    std::vector<const Event *> sessionSweeps, engineSweeps;
    for (const Event &event : events) {
        if (event.name == "ark.session.sweep")
            sessionSweeps.push_back(&event);
        else if (event.name == "ark.spice.sweep")
            engineSweeps.push_back(&event);
    }
    ASSERT_EQ(sessionSweeps.size(), 1u);
    ASSERT_EQ(engineSweeps.size(), 1u);
    const Event &outer = *sessionSweeps.front();
    const Event &inner = *engineSweeps.front();
    EXPECT_EQ(inner.tid, outer.tid);
    EXPECT_GE(inner.ts, outer.ts);
    EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur + 1e-3);
}

/** dx/dt = -k x through the full pipeline (ensemble_test's system). */
compiler::OdeSystem
decaySystem(lang::LanguageRegistry &registry, double k, double x0)
{
    if (!registry.findLanguage("decay")) {
        registry.addProgram(R"(
            lang decay {
                ntyp(1,sum) X {attr k=real[0,100],
                               init(0) real[-100,100]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= -s.k*var(s);
            }
        )");
    }
    lang::GraphBuilder builder(registry.language("decay"), 0);
    builder.node("x", "X");
    builder.attr("x", "k", k);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, x0);
    return compiler::compile(builder.take(),
                             registry.language("decay"));
}

TEST(TelemetryTest, EnsembleBitIdenticalOnVsOff)
{
    TelemetryGuard guard;
    lang::LanguageRegistry registry;
    std::vector<compiler::OdeSystem> systems;
    for (int i = 0; i < 6; ++i)
        systems.push_back(decaySystem(registry, 1.0 + i, 2.0 + i));
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);

    sim::EnsembleOptions options;
    options.sim.dt = 1e-3;

    telemetry::setMetricsEnabled(false);
    telemetry::setTracingEnabled(false);
    std::vector<sim::SimResult> plain =
        sim::simulateEnsemble(pointers, 0.0, 1.0, options);

    // The instrumented pass arms the whole telemetry plane: metrics,
    // tracing and the flight recorder. All of it is observation-only
    // by contract.
    telemetry::setMetricsEnabled(true);
    telemetry::setTracingEnabled(true);
    telemetry::RunLedger ledger;
    sim::EnsembleOptions instrumentedOptions = options;
    instrumentedOptions.ledger = &ledger;
    std::vector<sim::SimResult> instrumented =
        sim::simulateEnsemble(pointers, 0.0, 1.0, instrumentedOptions);
    telemetry::setMetricsEnabled(false);
    telemetry::setTracingEnabled(false);
    EXPECT_EQ(ledger.size(), pointers.size());

    ASSERT_EQ(plain.size(), instrumented.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const sim::SimResult &a = plain[i];
        const sim::SimResult &b = instrumented[i];
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a.steps, b.steps);
        ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
        for (std::size_t s = 0; s < a.trajectory.size(); ++s) {
            EXPECT_EQ(a.trajectory.time(s), b.trajectory.time(s));
            auto stateA = a.trajectory.state(s);
            auto stateB = b.trajectory.state(s);
            ASSERT_EQ(stateA.size(), stateB.size());
            for (std::size_t v = 0; v < stateA.size(); ++v)
                EXPECT_EQ(stateA[v], stateB[v])
                    << "instance " << i << " sample " << s;
        }
    }
}

TEST(TelemetryTest, ConcurrentWarningsPrintWholeTimestampedLines)
{
    testing::internal::CaptureStderr();
    constexpr int kThreads = 4;
    constexpr int kLinesPerThread = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kLinesPerThread; ++i)
                support::warn(support::cat("sink-test t", t, " line ", i));
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    std::istringstream captured(testing::internal::GetCapturedStderr());
    std::vector<std::string> lines;
    for (std::string line; std::getline(captured, line);)
        lines.push_back(line);

    ASSERT_EQ(lines.size(),
              static_cast<std::size_t>(kThreads * kLinesPerThread));
    // Each captured line is whole — "HH:MM:SS.mmm warn: sink-test tN
    // line M" — never an interleaved fragment.
    std::regex lineRe("[0-9]{2}:[0-9]{2}:[0-9]{2}\\.[0-9]{3} warn: "
                      "sink-test t[0-9]+ line [0-9]+");
    for (const std::string &line : lines)
        EXPECT_TRUE(std::regex_match(line, lineRe)) << line;
}

} // namespace
