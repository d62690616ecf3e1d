/**
 * @file
 * Workload driver of the end-to-end design-sweep benchmark.
 *
 * One process runs one workload (see perfbench/provenance.json for why
 * each was chosen and which layers it stresses):
 *
 *  - sec45-crossval: apps::experiments::runSpiceValidation over random
 *    GmC-TLN graphs (the §4.5 Ark-vs-SPICE cross-validation).
 *  - puf-crp: TlnPuf::responseMatrix over all 16 challenges x K chips.
 *  - maxcut-table1: runMaxcutSims on obc and ofs-obc, then scoreMaxcut
 *    at 0.01π and 0.1π (Table 1).
 *
 * Every timed unit is a *pair*: a cold pass (the artifact cache cleared
 * and, for the PUF, a fresh TlnPuf) followed by a warm pass over the
 * same inputs. One untimed pair runs first; it fills the process-wide
 * expression intern table and provides the reference output every
 * later pass must reproduce bit for bit. Timed pairs then repeat until
 * --seconds have elapsed.
 *
 * Untraced mode (--trace 0) calls the public apps entry points only and
 * reports per-pass wall and CPU time. Traced mode (--trace 1)
 * alternates untraced pairs with traced pairs. A traced pass recomposes
 * the entry point from the public layer calls it makes (graph build,
 * Session::compile, the ODE ensemble, netlist mapping, the SPICE sweep,
 * scoring), wraps each in a trace span, turns on the library's own
 * spans (which split Session::compile into validation and compilation)
 * and records the counts the library publishes: SimResult step counts,
 * engine::SweepStats, ArtifactCache hit/miss counters and RunLedger
 * records. Its output must equal the entry point's bit for bit, so the
 * recomposition cannot drift from the code it stands in for. The spans
 * are written as Chrome-trace JSON at the end of the run; run.py turns
 * them into per-layer self times.
 *
 * --setup-only measures set-up alone: process start (--t0-ns, taken by
 * the parent just before spawning) until the first instance can be
 * built, i.e. the standard language registry parsed and lowered and
 * the worker pool started.
 *
 * The last line of standard output is one JSON object with the raw
 * per-pass data; run.py reduces it to the benchmark's metrics.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/experiments.h"
#include "apps/puf.h"
#include "compiler/odesystem.h"
#include "dg/graph.h"
#include "engine/cache.h"
#include "engine/session.h"
#include "lang/registry.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "sim/batch.h"
#include "sim/sim.h"
#include "spice/batch.h"
#include "spice/map_tln.h"
#include "support/ledger.h"
#include "support/linalg.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace {

using namespace ark;
namespace exp = apps::experiments;
namespace ptln = paradigms::tln;
namespace pobc = paradigms::obc;
using Clock = std::chrono::steady_clock;
using telemetry::ScopedSpan;

// ------------------------------------------------------------ options

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    bool setupOnly = false;
    std::int64_t t0Ns = -1; ///< CLOCK_MONOTONIC at spawn, from the parent.
    bool tiny = false;      ///< Self-test sizes.
    double injectDelay = 0; ///< Extra share of the dominant call's time.
};

/** Timed pairs that run even when --seconds has already passed. */
constexpr int kMinPairs = 3;

[[noreturn]] void
fail(const std::string &message, int code = 2)
{
    std::cerr << "perfbench_driver: " << message << "\n";
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fail("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                options.workload = value();
            else if (arg == "--seed")
                options.seed = std::stoull(value());
            else if (arg == "--seconds")
                options.seconds = std::stod(value());
            else if (arg == "--trace")
                options.trace = value() == "1";
            else if (arg == "--out")
                options.outDir = value();
            else if (arg == "--setup-only")
                options.setupOnly = true;
            else if (arg == "--t0-ns")
                options.t0Ns = std::stoll(value());
            else if (arg == "--tiny")
                options.tiny = true;
            else if (arg == "--inject-delay")
                options.injectDelay = std::stod(value());
            else
                fail("unknown argument " + arg);
        } catch (const std::logic_error &) {
            fail("bad value for " + arg);
        }
    }
    if (options.workload.empty())
        fail("--workload is required");
    if (options.seed == 0)
        fail("--seed must be positive");
    if (!(options.seconds > 0) || options.injectDelay < 0)
        fail("--seconds must be positive and --inject-delay not negative");
    return options;
}

// ------------------------------------------------------- measurement

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** User + system CPU time of the whole process (all threads). */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto toSeconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return toSeconds(usage.ru_utime) + toSeconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::int64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** Appends a double's bit pattern: outputs are compared bit for bit. */
void
putBits(std::string &out, double v)
{
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    out.append(bytes, sizeof v);
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/**
 * Fault injection for the self-test: after the wrapped call, sleeps
 * `share` times the call's own duration, so that call looks that much
 * slower to every end-to-end metric.
 */
class InjectedDelay
{
  public:
    explicit InjectedDelay(double share) : share_(share) {}

    template <typename F>
    auto
    around(F &&call)
    {
        Clock::time_point start = Clock::now();
        auto result = call();
        if (share_ > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(secondsSince(start) * share_));
        return result;
    }

  private:
    double share_;
};

// ------------------------------------------------------ traced counts

/** Counts one traced pass publishes (summed over a cold+warm pair). */
struct LayerCounts
{
    std::uint64_t systemHits = 0;
    std::uint64_t systemMisses = 0;
    std::uint64_t tapeOps = 0;
    std::uint64_t stepsAccepted = 0;
    std::uint64_t stepsRejected = 0;
    std::uint64_t odeInstances = 0;
    std::uint64_t scalarInstances = 0;
    std::uint64_t laneInstances = 0;
    double laneOccupancySum = 0;
    double ensembleCpu = 0;
    double ensembleWall = 0;
    std::uint64_t structureGroups = 0;
    std::uint64_t factorHits = 0;
    std::uint64_t factorMisses = 0;

    std::string
    json(unsigned threads) const
    {
        std::ostringstream out;
        out << "{\"system_hits\":" << systemHits
            << ",\"system_misses\":" << systemMisses
            << ",\"tape_ops\":" << tapeOps
            << ",\"steps_accepted\":" << stepsAccepted
            << ",\"steps_rejected\":" << stepsRejected
            << ",\"ode_instances\":" << odeInstances
            << ",\"scalar_instances\":" << scalarInstances
            << ",\"lane_instances\":" << laneInstances
            << ",\"lane_occupancy_sum\":" << jsonNumber(laneOccupancySum)
            << ",\"ensemble_cpu_s\":" << jsonNumber(ensembleCpu)
            << ",\"ensemble_wall_s\":" << jsonNumber(ensembleWall)
            << ",\"threads\":" << threads
            << ",\"structure_groups\":" << structureGroups
            << ",\"factor_hits\":" << factorHits
            << ",\"factor_misses\":" << factorMisses << "}";
        return out.str();
    }
};

/** Session::compile under an "engine.compile" span, with the cache's
 *  hit/miss counters and the compiled tape size recorded. */
engine::SystemPtr
tracedCompile(const engine::Session &session, const dg::Graph &graph,
              const lang::Language &language, LayerCounts &counts)
{
    const engine::CacheStats before = session.cache().stats();
    engine::SystemPtr system;
    {
        ScopedSpan span("engine.compile");
        system = session.compile(graph, language);
    }
    const engine::CacheStats after = session.cache().stats();
    counts.systemHits += after.systemHits - before.systemHits;
    const std::uint64_t misses = after.systemMisses - before.systemMisses;
    counts.systemMisses += misses;
    if (misses != 0)
        counts.tapeOps += system->fusedTape().size();
    return system;
}

/** Runs an ensemble call under a "sim.ensemble" span with a RunLedger
 *  attached, and folds its step counts and ledger records into
 *  `counts`. The ledger only observes: results are bit-identical. */
template <typename F>
std::vector<sim::SimResult>
tracedEnsemble(sim::EnsembleOptions options, LayerCounts &counts, F &&run)
{
    telemetry::RunLedger ledger;
    options.ledger = &ledger;
    const double cpu0 = cpuSeconds();
    Clock::time_point start = Clock::now();
    std::vector<sim::SimResult> results;
    {
        ScopedSpan span("sim.ensemble");
        results = run(options);
    }
    counts.ensembleWall += secondsSince(start);
    counts.ensembleCpu += cpuSeconds() - cpu0;
    for (const sim::SimResult &result : results) {
        counts.stepsAccepted += result.steps;
        counts.stepsRejected += result.rejectedSteps;
    }
    for (const telemetry::RunLedger::Record &record : ledger.records()) {
        ++counts.odeInstances;
        if (record.tier == telemetry::RunLedger::Tier::Scalar) {
            ++counts.scalarInstances;
        } else {
            ++counts.laneInstances;
            counts.laneOccupancySum +=
                static_cast<double>(record.lanes) /
                static_cast<double>(std::max<std::size_t>(record.laneWidth, 1));
        }
    }
    return results;
}

// ---------------------------------------------------------- workloads

/** What one pass produced: a bit-exact encoding plus failed instances. */
struct PassOutput
{
    std::string bits;
    std::size_t failed = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Instances one pass pushes through the whole pipeline. */
    virtual std::size_t instances() const = 0;

    /** Digest of the generated inputs (differs between seeds). */
    virtual std::string inputDigest() const = 0;

    /** Puts the process in cold state: empty artifact cache, fresh
     *  per-design objects. Runs before a cold pass, untimed. */
    virtual void
    startCold()
    {
        engine::ArtifactCache::shared().clear();
    }

    /** One pass through the public apps entry point. */
    virtual PassOutput pass(InjectedDelay &delay) = 0;

    /** The same pass recomposed from public layer calls, spanned. */
    virtual PassOutput tracedPass(LayerCounts &counts) = 0;

    /** Workload-specific output checks on the reference (first) pair;
     *  appends a message per failed check. */
    virtual void check(std::vector<std::string> &problems) = 0;

    /** The headline numbers check() looked at, for the run stamp. */
    virtual std::string summary() const = 0;
};

// --- §4.5 cross-validation --------------------------------------------

class Sec45Workload : public Workload
{
  public:
    Sec45Workload(const lang::Language &gmc, std::uint64_t seed, bool tiny,
                  unsigned threads)
        : gmc_(gmc), trials_(tiny ? 12 : 250),
          seedBase_((seed - 1) * static_cast<std::uint64_t>(trials_) + 1),
          threads_(threads)
    {
    }

    std::size_t instances() const override { return trials_; }

    std::string
    inputDigest() const override
    {
        std::ostringstream out;
        out << "sec45 trials=" << trials_ << " seedBase=" << seedBase_;
        return hex(fnv1a(out.str()));
    }

    PassOutput
    pass(InjectedDelay &delay) override
    {
        exp::SpiceValidationOptions options;
        options.numThreads = threads_;
        report_ = delay.around([&] {
            return exp::runSpiceValidation(gmc_, trials_, seedBase_, options);
        });
        return encode(report_);
    }

    /** runSpiceValidation, call for call, with a span per layer. */
    PassOutput
    tracedPass(LayerCounts &counts) override
    {
        exp::SpiceValidation report;
        report.total = trials_;
        const double tEnd = 4e-8;
        const double spiceDt = 2e-11;
        const std::size_t compareGrid = 400;
        engine::Session session;
        std::vector<engine::SystemPtr> systems;
        std::vector<spice::MappedTln> mapped;
        systems.reserve(static_cast<std::size_t>(trials_));
        mapped.reserve(static_cast<std::size_t>(trials_));
        for (int trial = 0; trial < trials_; ++trial) {
            std::optional<dg::Graph> graph;
            {
                ScopedSpan span("dg.build");
                support::Rng rng(seedBase_ + static_cast<std::uint64_t>(trial));
                ptln::LineSpec spec;
                spec.sections = static_cast<int>(rng.uniformInt(3, 12));
                spec.inductance = rng.uniform(0.5e-9, 2e-9);
                spec.capacitance = rng.uniform(0.5e-9, 2e-9);
                spec.sourceConductance = rng.uniform(0.5, 2.0);
                spec.termConductance = rng.uniform(0.5, 2.0);
                spec.pulseWidth = rng.uniform(0.5e-8, 2e-8);
                spec.mismatchC = true;
                spec.mismatchGm = true;
                spec.seed = rng.deriveSeed();
                if (rng.bernoulli(0.5)) {
                    ptln::BranchSpec branch;
                    branch.line = spec;
                    branch.stubSections =
                        static_cast<int>(rng.uniformInt(1, 4));
                    branch.attachAt = static_cast<int>(
                        rng.uniformInt(1, spec.sections - 1));
                    graph.emplace(ptln::buildBranched(gmc_, branch));
                } else {
                    graph.emplace(ptln::buildLine(gmc_, spec));
                }
            }
            systems.push_back(tracedCompile(session, *graph, gmc_, counts));
            {
                ScopedSpan span("spice.map");
                mapped.push_back(spice::mapTlnToSpice(*graph, gmc_));
            }
            ScopedSpan span("dg.build");
            graph.reset();
            ++report.mapped;
        }

        std::vector<const spice::Netlist *> netlists;
        {
            ScopedSpan span("spice.groups");
            netlists.reserve(mapped.size());
            for (const spice::MappedTln &map : mapped)
                netlists.push_back(&map.netlist);
            report.spiceGroups =
                static_cast<int>(spice::countStructureGroups(netlists));
        }
        // Per pass, not per pair: cold and warm sweeps group identically.
        counts.structureGroups = static_cast<std::uint64_t>(report.spiceGroups);

        sim::EnsembleOptions odeOptions;
        odeOptions.sim.relTol = 1e-8;
        odeOptions.sim.absTol = 1e-12;
        odeOptions.sim.recordDt = tEnd / 2000.0;
        odeOptions.numThreads = threads_;
        spice::TransientBatchOptions batchOptions;
        batchOptions.numThreads = threads_;

        const int chunk = 128;
        for (int base = 0; base < trials_; base += chunk) {
            const int end = std::min(trials_, base + chunk);
            std::vector<const compiler::OdeSystem *> odeSlice;
            std::vector<const spice::Netlist *> netSlice;
            for (int trial = base; trial < end; ++trial) {
                odeSlice.push_back(systems[static_cast<std::size_t>(trial)].get());
                netSlice.push_back(netlists[static_cast<std::size_t>(trial)]);
            }
            std::vector<sim::SimResult> dgResults = tracedEnsemble(
                odeOptions, counts, [&](const sim::EnsembleOptions &o) {
                    return sim::simulateEnsemble(odeSlice, 0.0, tEnd, o);
                });
            engine::SweepStats sweepStats;
            std::vector<spice::TransientResult> spiceResults;
            {
                ScopedSpan span("spice.sweep");
                spiceResults = session.runSweep(netSlice, 0.0, tEnd, spiceDt,
                                                batchOptions, &sweepStats);
            }
            counts.factorHits += sweepStats.factorHits;
            counts.factorMisses += sweepStats.factorMisses;
            report.spiceFactorHits += static_cast<int>(sweepStats.factorHits);
            report.spiceFactorMisses +=
                static_cast<int>(sweepStats.factorMisses);

            ScopedSpan span("apps.score");
            for (int trial = base; trial < end; ++trial) {
                auto idx = static_cast<std::size_t>(trial);
                auto local = static_cast<std::size_t>(trial - base);
                if (!dgResults[local].ok() || !spiceResults[local].ok())
                    throw support::SimError("traced sec45 trial failed");
                std::vector<double> dgSeries =
                    dgResults[local].trajectory.resample(
                        systems[idx]->stateIndex(ptln::outputNode(), 0), 0.0,
                        tEnd, compareGrid);
                std::vector<double> spiceAll = spiceResults[local].series(
                    static_cast<std::size_t>(
                        mapped[idx].circuitNodeOf.at(ptln::outputNode())));
                std::vector<double> spiceSeries;
                spiceSeries.reserve(compareGrid);
                for (std::size_t g = 0; g < compareGrid; ++g) {
                    double t = tEnd * static_cast<double>(g) /
                               static_cast<double>(compareGrid - 1);
                    double pos = t / spiceDt;
                    auto lo = static_cast<std::size_t>(pos);
                    lo = std::min(lo, spiceAll.size() - 1);
                    std::size_t hi = std::min(lo + 1, spiceAll.size() - 1);
                    double alpha = pos - static_cast<double>(lo);
                    spiceSeries.push_back(spiceAll[lo] +
                                          alpha * (spiceAll[hi] - spiceAll[lo]));
                }
                double rmse = support::relativeRmse(dgSeries, spiceSeries);
                report.meanRmse += rmse;
                report.maxRmse = std::max(report.maxRmse, rmse);
                if (rmse < 0.01)
                    ++report.under1pct;
            }
            dgResults.clear();
            spiceResults.clear();
        }
        {
            ScopedSpan span("apps.score");
            if (report.total > 0)
                report.meanRmse /= report.total;
            systems.clear();
            netlists.clear();
            mapped.clear();
        }
        return encode(report);
    }

    void
    check(std::vector<std::string> &problems) override
    {
        if (report_.mapped != report_.total)
            problems.push_back("sec45: " + std::to_string(report_.total -
                                                          report_.mapped) +
                               " trials did not map to a netlist");
        if (report_.under1pct != report_.total || !(report_.maxRmse < 0.01))
            problems.push_back("sec45: " +
                               std::to_string(report_.total -
                                              report_.under1pct) +
                               " trials at or above 1% relative RMSE");
    }

    std::string
    summary() const override
    {
        return "mapped " + std::to_string(report_.mapped) + "/" +
               std::to_string(report_.total) + ", under 1% RMSE " +
               std::to_string(report_.under1pct) + ", max RMSE " +
               jsonNumber(report_.maxRmse) + ", structures " +
               std::to_string(report_.spiceGroups);
    }

  private:
    PassOutput
    encode(const exp::SpiceValidation &report) const
    {
        // Factor hit/miss counts differ between cold and warm passes by
        // design; the trial results do not.
        PassOutput out;
        out.bits = std::to_string(report.total) + "/" +
                   std::to_string(report.mapped) + "/" +
                   std::to_string(report.under1pct) + "/" +
                   std::to_string(report.spiceGroups) + "/";
        putBits(out.bits, report.meanRmse);
        putBits(out.bits, report.maxRmse);
        out.failed = static_cast<std::size_t>(
            report.total - std::min(report.mapped, report.under1pct));
        return out;
    }

    const lang::Language &gmc_;
    int trials_;
    std::uint64_t seedBase_;
    unsigned threads_;
    exp::SpiceValidation report_;
};

// --- PUF challenge-response battery ------------------------------------

class PufWorkload : public Workload
{
  public:
    PufWorkload(const lang::Language &gmc, std::uint64_t seed, bool tiny)
        : gmc_(gmc), uniquenessCheck_(!tiny)
    {
        design_.mainSections = 16;
        design_.numBranches = 4;
        design_.stubSections = 4;
        for (std::uint32_t c = 0; c < (1u << design_.numBranches); ++c)
            challenges_.push_back(c);
        support::Rng rng(seed);
        const int chips = tiny ? 2 : 8;
        while (static_cast<int>(chipSeeds_.size()) < chips) {
            std::uint64_t chip = rng.nextU64();
            if (chip != 0 && std::find(chipSeeds_.begin(), chipSeeds_.end(),
                                       chip) == chipSeeds_.end())
                chipSeeds_.push_back(chip);
        }
        sampleRng_ = support::Rng(seed ^ 0x5eedull);
    }

    std::size_t
    instances() const override
    {
        return challenges_.size() * chipSeeds_.size();
    }

    std::string
    inputDigest() const override
    {
        std::string bytes = "puf";
        for (std::uint64_t chip : chipSeeds_)
            bytes += std::to_string(chip) + ",";
        return hex(fnv1a(bytes));
    }

    void
    startCold() override
    {
        Workload::startCold();
        puf_ = std::make_unique<apps::TlnPuf>(gmc_, design_);
        nominal_.assign(challenges_.size(), {});
    }

    PassOutput
    pass(InjectedDelay &delay) override
    {
        responses_ = delay.around([&] {
            return puf_->responseMatrix(challenges_, chipSeeds_, 0.0, {}, 1);
        });
        return encode(responses_);
    }

    /** TlnPuf::responseMatrix (no noise, every challenge once), call
     *  for call, with a span per layer. Nominal reference waveforms are
     *  kept across the pair exactly as the TlnPuf object keeps them. */
    PassOutput
    tracedPass(LayerCounts &counts) override
    {
        const engine::Session &session = puf_->session();
        const std::size_t numChips = chipSeeds_.size();
        std::vector<engine::SystemPtr> systems;
        std::vector<std::uint32_t> nominalNeeded;
        auto compileOne = [&](std::uint32_t challenge, std::uint64_t chip) {
            std::optional<dg::Graph> graph;
            {
                ScopedSpan span("dg.build");
                graph.emplace(puf_->buildGraph(challenge, chip));
            }
            systems.push_back(tracedCompile(session, *graph, gmc_, counts));
            ScopedSpan span("dg.build");
            graph.reset();
        };
        for (std::uint32_t challenge : challenges_)
            for (std::uint64_t chip : chipSeeds_)
                compileOne(challenge, chip);
        const std::size_t numChipInstances = systems.size();
        for (std::uint32_t challenge : challenges_) {
            if (nominal_[challenge].empty()) {
                nominalNeeded.push_back(challenge);
                compileOne(challenge, 0);
            }
        }

        sim::EnsembleOptions options;
        options.sim.method = design_.simMethod;
        options.sim.dt = design_.simDt > 0 ? design_.simDt
                                           : design_.windowEnd / 4000.0;
        options.sim.recordDt = design_.windowEnd / 4000.0;
        options.sim.jit = design_.jit;
        options.numThreads = 1;
        std::vector<sim::SimResult> results = tracedEnsemble(
            options, counts, [&](const sim::EnsembleOptions &o) {
                return session.runEnsemble(systems, 0.0, design_.windowEnd, o);
            });

        ScopedSpan span("apps.score");
        std::vector<std::vector<double>> waveforms(results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok())
                throw support::SimError("traced PUF instance failed");
            waveforms[i] = results[i].trajectory.resample(
                systems[i]->stateIndex("OUT_V", 0), design_.windowStart,
                design_.windowEnd,
                static_cast<std::size_t>(design_.responseBits));
        }
        for (std::size_t k = 0; k < nominalNeeded.size(); ++k)
            nominal_[nominalNeeded[k]] =
                std::move(waveforms[numChipInstances + k]);
        std::vector<std::vector<std::vector<std::uint8_t>>> responses(
            challenges_.size());
        for (std::size_t c = 0; c < challenges_.size(); ++c) {
            const std::vector<double> &nominal = nominal_[challenges_[c]];
            for (std::size_t chip = 0; chip < numChips; ++chip) {
                const std::vector<double> &measured =
                    waveforms[c * numChips + chip];
                std::vector<std::uint8_t> bits;
                bits.reserve(measured.size());
                for (std::size_t i = 0; i < measured.size(); ++i)
                    bits.push_back(measured[i] > nominal[i] ? 1 : 0);
                responses[c].push_back(std::move(bits));
            }
        }
        results.clear();
        systems.clear();
        return encode(responses);
    }

    void
    check(std::vector<std::string> &problems) override
    {
        // Uniqueness: mean inter-chip response distance, ideal 0.5.
        double sum = 0;
        int count = 0;
        for (const auto &perChip : responses_)
            for (std::size_t a = 0; a < perChip.size(); ++a)
                for (std::size_t b = a + 1; b < perChip.size(); ++b) {
                    sum += apps::hammingFraction(perChip[a], perChip[b]);
                    ++count;
                }
        uniqueness_ = count ? sum / count : 0.0;
        if (uniquenessCheck_ && !(uniqueness_ > 0.3 && uniqueness_ < 0.7))
            problems.push_back("puf: uniqueness " + jsonNumber(uniqueness_) +
                               " is not near 0.5");

        // RK4 lane-equals-scalar contract: a sampled subset of batched
        // responses must equal per-chip waveform() results. A fresh PUF
        // object keeps the check's own simulations out of the timed one.
        apps::TlnPuf scalar(gmc_, design_);
        for (int sample = 0; sample < 3; ++sample) {
            auto c = static_cast<std::size_t>(
                sampleRng_.uniformInt(0, static_cast<std::int64_t>(
                                             challenges_.size()) - 1));
            auto chip = static_cast<std::size_t>(
                sampleRng_.uniformInt(0, static_cast<std::int64_t>(
                                             chipSeeds_.size()) - 1));
            std::vector<double> nominal = scalar.waveform(challenges_[c], 0);
            std::vector<double> measured =
                scalar.waveform(challenges_[c], chipSeeds_[chip]);
            std::vector<std::uint8_t> bits;
            for (std::size_t i = 0; i < measured.size(); ++i)
                bits.push_back(measured[i] > nominal[i] ? 1 : 0);
            if (bits != responses_[c][chip])
                problems.push_back("puf: batched response (challenge " +
                                   std::to_string(challenges_[c]) +
                                   ") differs from per-chip waveform()");
        }
    }

    std::string
    summary() const override
    {
        return "uniqueness " + jsonNumber(uniqueness_);
    }

  private:
    static PassOutput
    encode(const std::vector<std::vector<std::vector<std::uint8_t>>> &responses)
    {
        PassOutput out;
        for (const auto &perChip : responses)
            for (const auto &bits : perChip)
                for (std::uint8_t bit : bits)
                    out.bits += static_cast<char>('0' + bit);
        return out;
    }

    const lang::Language &gmc_;
    bool uniquenessCheck_; ///< Off at self-test size: two chips only.
    apps::PufDesign design_;
    std::vector<std::uint32_t> challenges_;
    std::vector<std::uint64_t> chipSeeds_;
    support::Rng sampleRng_;
    std::unique_ptr<apps::TlnPuf> puf_;
    std::vector<std::vector<double>> nominal_;
    std::vector<std::vector<std::vector<std::uint8_t>>> responses_;
    double uniqueness_ = 0;
};

// --- Table 1 max-cut ----------------------------------------------------

class MaxcutWorkload : public Workload
{
  public:
    /** runMaxcutSims runs on the pool's default thread count. */
    MaxcutWorkload(const lang::Language &obc, const lang::Language &ofs,
                   std::uint64_t seed, bool tiny)
        : obc_(obc), ofs_(ofs), trials_(tiny ? 40 : 1000),
          seedBase_((seed - 1) * static_cast<std::uint64_t>(trials_) + 1),
          exactTable_(!tiny && seed == 1), shapeCheck_(!tiny)
    {
    }

    std::size_t instances() const override { return 2 * trials_; }

    std::string
    inputDigest() const override
    {
        std::ostringstream out;
        out << "maxcut trials=" << trials_ << " seedBase=" << seedBase_;
        return hex(fnv1a(out.str()));
    }

    PassOutput
    pass(InjectedDelay &delay) override
    {
        ideal_ = delay.around([&] {
            return exp::runMaxcutSims(obc_, false, trials_, seedBase_);
        });
        offset_ = delay.around([&] {
            return exp::runMaxcutSims(ofs_, true, trials_, seedBase_);
        });
        score(ideal_, offset_);
        return encode();
    }

    /** runMaxcutSims for both languages, call for call, then the four
     *  scoreMaxcut calls, with a span per layer. */
    PassOutput
    tracedPass(LayerCounts &counts) override
    {
        ideal_ = tracedSims(obc_, false, counts);
        offset_ = tracedSims(ofs_, true, counts);
        ScopedSpan span("apps.score");
        score(ideal_, offset_);
        return encode();
    }

    void
    check(std::vector<std::string> &problems) override
    {
        auto pct = [](double v) {
            char buf[16];
            std::snprintf(buf, sizeof buf, "%.1f", v);
            return std::string(buf);
        };
        std::string table;
        for (int d = 0; d < 2; ++d)
            table += pct(rows_[d][0].syncProb) + "/" +
                     pct(rows_[d][0].solvedProb) + " " +
                     pct(rows_[d][1].syncProb) + "/" +
                     pct(rows_[d][1].solvedProb) + (d == 0 ? "; " : "");
        table_ = table;
        // Table 1 as this code base reproduces it (1000 trials, seeds
        // from 1): obc | ofs-obc at 0.01π, then at 0.1π.
        if (exactTable_ &&
            table != "94.2/94.0 68.7/68.7; 96.9/94.0 96.5/96.1")
            problems.push_back("maxcut: Table 1 at seed 1 reads " + table);
        if (shapeCheck_) {
            const double obcTight = rows_[0][0].solvedProb;
            const double ofsTight = rows_[0][1].solvedProb;
            const double obcLoose = rows_[1][0].solvedProb;
            const double ofsLoose = rows_[1][1].solvedProb;
            if (!(ofsTight < obcTight - 10.0))
                problems.push_back("maxcut: no offset collapse at 0.01π (" +
                                   table + ")");
            if (!(ofsLoose > ofsTight + 10.0 && ofsLoose > obcLoose - 5.0))
                problems.push_back("maxcut: no recovery at 0.1π (" + table +
                                   ")");
        }
    }

    std::string
    summary() const override
    {
        return "Table 1 (obc | ofs-obc sync/solved %, 0.01pi; 0.1pi): " +
               table_;
    }

  private:
    std::vector<exp::MaxcutOutcome>
    tracedSims(const lang::Language &language, bool withOffset,
               LayerCounts &counts)
    {
        const double pi = std::numbers::pi;
        engine::Session session;
        std::vector<exp::MaxcutOutcome> outcomes;
        std::vector<engine::SystemPtr> systems;
        outcomes.reserve(static_cast<std::size_t>(trials_));
        systems.reserve(static_cast<std::size_t>(trials_));
        for (int trial = 0; trial < trials_; ++trial) {
            std::optional<dg::Graph> graph;
            exp::MaxcutOutcome outcome;
            {
                ScopedSpan span("dg.build");
                support::Rng rng(seedBase_ + static_cast<std::uint64_t>(trial));
                outcome.instance.numVertices = 4;
                for (int a = 0; a < 4; ++a)
                    for (int b = a + 1; b < 4; ++b)
                        if (rng.bernoulli(0.5))
                            outcome.instance.edges.emplace_back(a, b);
                pobc::MaxcutSpec spec;
                spec.withOffset = withOffset;
                spec.seed = seedBase_ + static_cast<std::uint64_t>(trial);
                for (int v = 0; v < 4; ++v)
                    spec.initPhases.push_back(rng.uniform(0.0, 2.0 * pi));
                graph.emplace(pobc::buildMaxcut(language, outcome.instance,
                                                spec));
            }
            systems.push_back(tracedCompile(session, *graph, language, counts));
            ScopedSpan span("dg.build");
            graph.reset();
            outcomes.push_back(std::move(outcome));
        }

        sim::EnsembleOptions options;
        options.sim.recordDt = 1e-9;
        std::vector<sim::SimResult> results = tracedEnsemble(
            options, counts, [&](const sim::EnsembleOptions &o) {
                return session.runEnsemble(systems, 0.0, 5e-8, o);
            });

        ScopedSpan span("apps.score");
        for (std::size_t trial = 0; trial < results.size(); ++trial) {
            if (!results[trial].ok())
                throw support::SimError("traced max-cut trial failed");
            const auto &trajectory = results[trial].trajectory;
            auto final = trajectory.state(trajectory.size() - 1);
            for (int v = 0; v < 4; ++v)
                outcomes[trial].phases.push_back(
                    final[static_cast<std::size_t>(
                        systems[trial]->stateIndex(pobc::oscName(v), 0))]);
        }
        results.clear();
        systems.clear();
        return outcomes;
    }

    void
    score(const std::vector<exp::MaxcutOutcome> &ideal,
          const std::vector<exp::MaxcutOutcome> &offset)
    {
        const double pi = std::numbers::pi;
        const double tolerances[2] = {0.01 * pi, 0.1 * pi};
        for (int d = 0; d < 2; ++d) {
            rows_[d][0] = exp::scoreMaxcut(ideal, tolerances[d]);
            rows_[d][1] = exp::scoreMaxcut(offset, tolerances[d]);
        }
    }

    PassOutput
    encode() const
    {
        PassOutput out;
        for (const auto *outcomes : {&ideal_, &offset_})
            for (const exp::MaxcutOutcome &outcome : *outcomes)
                for (double phase : outcome.phases)
                    putBits(out.bits, phase);
        for (const auto &row : rows_)
            for (const exp::ObcRow &cell : row) {
                putBits(out.bits, cell.syncProb);
                putBits(out.bits, cell.solvedProb);
            }
        return out;
    }

    const lang::Language &obc_;
    const lang::Language &ofs_;
    int trials_;
    std::uint64_t seedBase_;
    bool exactTable_;
    bool shapeCheck_;
    std::vector<exp::MaxcutOutcome> ideal_;
    std::vector<exp::MaxcutOutcome> offset_;
    exp::ObcRow rows_[2][2]{};
    std::string table_;
};

// ---------------------------------------------------------------- run

struct PairTiming
{
    double coldWall = 0;
    double warmWall = 0;
    double coldCpu = 0;
};

/**
 * Runs one cold+warm pair. Output mismatches against `reference` and
 * failed instances are added to `failed`; exceptions fail the pass. An
 * empty `reference` is set from this pair's cold output.
 */
PairTiming
runPair(Workload &workload, bool traced, InjectedDelay &delay,
        std::string &reference, std::size_t &failed,
        std::vector<std::string> &problems, LayerCounts *counts)
{
    PairTiming timing;
    for (int warm = 0; warm < 2; ++warm) {
        if (!warm)
            workload.startCold();
        const double cpu0 = cpuSeconds();
        Clock::time_point start = Clock::now();
        PassOutput out;
        try {
            if (traced) {
                ScopedSpan span(warm ? "bench.warm" : "bench.cold");
                out = workload.tracedPass(*counts);
            } else {
                out = workload.pass(delay);
            }
        } catch (const std::exception &e) {
            out.failed = workload.instances();
            problems.push_back(std::string("pass threw: ") + e.what());
        }
        const double wall = secondsSince(start);
        const double cpu = cpuSeconds() - cpu0;
        (warm ? timing.warmWall : timing.coldWall) = wall;
        if (!warm)
            timing.coldCpu = cpu;
        if (reference.empty())
            reference = out.bits;
        if (out.failed == 0 && out.bits != reference) {
            out.failed = workload.instances();
            problems.push_back(std::string(traced ? "traced " : "") +
                               (warm ? "warm" : "cold") +
                               " pass output differs from the reference");
        }
        failed += out.failed;
    }
    return timing;
}

/** Registry parse/lowering plus worker-pool start-up. */
struct Setup
{
    lang::LanguageRegistry registry;
    double registrySeconds = 0;
    double setupSeconds = 0;
};

std::unique_ptr<Setup>
runSetup(const Options &options, Clock::time_point mainEntry,
         unsigned threads)
{
    auto setup = std::make_unique<Setup>();
    Clock::time_point start = Clock::now();
    setup->registry = paradigms::makeStandardRegistry();
    setup->registrySeconds = secondsSince(start);
    sim::BatchRunner::shared().parallelFor(threads, threads,
                                           [](std::size_t) {});
    setup->setupSeconds =
        options.t0Ns >= 0
            ? static_cast<double>(monotonicNs() - options.t0Ns) * 1e-9
            : secondsSince(mainEntry);
    return setup;
}

unsigned
workloadThreads(const std::string &name)
{
    if (name == "sec45-crossval")
        return std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
    if (name == "puf-crp")
        return 1;
    if (name == "maxcut-table1")
        return std::max(1u, std::thread::hardware_concurrency());
    fail("unknown workload '" + name +
         "' (sec45-crossval, puf-crp, maxcut-table1)");
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        out += jsonNumber(values[i]);
    }
    return out + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point mainEntry = Clock::now();
    const Options options = parseArgs(argc, argv);

#ifdef NDEBUG
    const bool assertsOff = true;
#else
    const bool assertsOff = false;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || !assertsOff)
        fail(std::string("refusing to measure a ") + PERFBENCH_BUILD_TYPE +
                 " build: configure with -DCMAKE_BUILD_TYPE=Release",
             3);

    const unsigned threads = workloadThreads(options.workload);
    std::unique_ptr<Setup> setup = runSetup(options, mainEntry, threads);
    if (options.setupOnly) {
        std::cout << "{\"setup_s\":" << jsonNumber(setup->setupSeconds)
                  << ",\"registry_s\":" << jsonNumber(setup->registrySeconds)
                  << "}\n";
        return 0;
    }

    const lang::LanguageRegistry &registry = setup->registry;
    std::unique_ptr<Workload> workload;
    if (options.workload == "sec45-crossval")
        workload = std::make_unique<Sec45Workload>(
            registry.language("gmc-tln"), options.seed, options.tiny,
            threads);
    else if (options.workload == "puf-crp")
        workload = std::make_unique<PufWorkload>(
            registry.language("gmc-tln"), options.seed, options.tiny);
    else
        workload = std::make_unique<MaxcutWorkload>(
            registry.language("obc"), registry.language("ofs-obc"),
            options.seed, options.tiny);

    InjectedDelay noDelay(0.0);
    InjectedDelay delay(options.injectDelay);
    std::vector<std::string> problems;
    std::size_t failed = 0;
    std::size_t attempted = 0;

    // Untimed reference pair: its cold output is what every later pass
    // must reproduce, and the output checks run on it.
    std::string reference;
    runPair(*workload, false, noDelay, reference, failed, problems, nullptr);
    attempted += 2 * workload->instances();
    const std::size_t before = problems.size();
    try {
        workload->check(problems);
    } catch (const std::exception &e) {
        problems.push_back(std::string("output check threw: ") + e.what());
    }
    if (problems.size() > before)
        failed += workload->instances();

    std::vector<double> coldWall, warmWall, coldCpu;
    std::vector<double> tracedPairWall, untracedPairWall;
    std::vector<std::string> countsJson;
    const Clock::time_point measureStart = Clock::now();
    for (int pair = 0; pair < kMinPairs ||
                       secondsSince(measureStart) < options.seconds;
         ++pair) {
        if (!options.trace) {
            PairTiming t = runPair(*workload, false, delay, reference,
                                   failed, problems, nullptr);
            attempted += 2 * workload->instances();
            coldWall.push_back(t.coldWall);
            warmWall.push_back(t.warmWall);
            coldCpu.push_back(t.coldCpu);
            continue;
        }
        // Traced runs alternate which side goes first.
        for (int side = 0; side < 2; ++side) {
            const bool traced = (side == 0) == (pair % 2 == 0);
            LayerCounts counts;
            if (traced)
                telemetry::setTracingEnabled(true);
            PairTiming t = runPair(*workload, traced, delay, reference,
                                   failed, problems, &counts);
            if (traced) {
                // One trace file per traced pair keeps every span within
                // the library's per-thread ring buffers; run.py merges
                // them into the run's trace.json.
                telemetry::setTracingEnabled(false);
                const std::string path = options.outDir + "/trace-" +
                                         std::to_string(countsJson.size()) +
                                         ".json";
                std::ofstream out(path);
                telemetry::writeChromeTrace(out);
                if (!out)
                    problems.push_back("could not write " + path);
                if (telemetry::droppedSpans() != 0)
                    problems.push_back("trace ring buffers overflowed");
                telemetry::clearTrace();
                countsJson.push_back(counts.json(threads));
                tracedPairWall.push_back(t.coldWall + t.warmWall);
            } else {
                untracedPairWall.push_back(t.coldWall + t.warmWall);
            }
            attempted += 2 * workload->instances();
        }
    }

    const double n = static_cast<double>(workload->instances());
    std::ostringstream result;
    result << "{\"workload\":" << jsonString(options.workload)
           << ",\"seed\":" << options.seed
           << ",\"instances_per_pass\":" << workload->instances()
           << ",\"threads\":" << threads
           << ",\"input_digest\":" << jsonString(workload->inputDigest())
           << ",\"output_digest\":" << jsonString(hex(fnv1a(reference)))
           << ",\"summary\":" << jsonString(workload->summary())
           << ",\"build\":{\"type\":" << jsonString(PERFBENCH_BUILD_TYPE)
           << ",\"lto\":" << (PERFBENCH_LTO ? "true" : "false")
           << ",\"native\":" << (PERFBENCH_NATIVE ? "true" : "false")
           << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER) << "}"
           << ",\"setup_s\":" << jsonNumber(setup->setupSeconds)
           << ",\"registry_s\":" << jsonNumber(setup->registrySeconds)
           << ",\"attempted\":" << attempted << ",\"failed\":" << failed
           << ",\"problems\":[";
    for (std::size_t i = 0; i < problems.size(); ++i)
        result << (i ? "," : "") << jsonString(problems[i]);
    result << "]";
    if (!options.trace) {
        result << ",\"cold_s\":" << jsonArray(coldWall)
               << ",\"warm_s\":" << jsonArray(warmWall)
               << ",\"cold_cpu_s\":" << jsonArray(coldCpu)
               << ",\"cold_instances_per_s\":"
               << jsonNumber(n / median(coldWall))
               << ",\"warm_instances_per_s\":"
               << jsonNumber(n / median(warmWall))
               << ",\"cpu_ms_per_instance\":"
               << jsonNumber(1000.0 * median(coldCpu) / n)
               << ",\"peak_rss_mb\":" << jsonNumber(peakRssMb());
    } else {
        result << ",\"traced_pair_s\":" << jsonArray(tracedPairWall)
               << ",\"untraced_pair_s\":" << jsonArray(untracedPairWall)
               << ",\"pair_counts\":[";
        for (std::size_t i = 0; i < countsJson.size(); ++i)
            result << (i ? "," : "") << countsJson[i];
        result << "]";
    }
    result << "}";
    std::cout << result.str() << std::endl;
    return problems.empty() && failed == 0 ? 0 : 1;
}
