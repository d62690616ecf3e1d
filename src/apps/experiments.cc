#include "apps/experiments.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "compiler/compiler.h"
#include "engine/session.h"
#include "sim/batch.h"
#include "sim/sim.h"
#include "spice/batch.h"
#include "spice/map_tln.h"
#include "spice/mna.h"
#include "support/error.h"
#include "support/linalg.h"
#include "support/logging.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace ark::apps::experiments {

namespace ptln = paradigms::tln;
namespace pcnn = paradigms::cnn;
namespace pobc = paradigms::obc;
using support::cat;

double
TlnTrace::peak() const
{
    double best = 0.0;
    for (double v : volts)
        best = std::max(best, std::fabs(v));
    return best;
}

double
TlnTrace::peakWithin(double t0, double t1) const
{
    double best = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (times[i] >= t0 && times[i] <= t1)
            best = std::max(best, std::fabs(volts[i]));
    }
    return best;
}

namespace {

/** Simulate OUT_V of a (validated) t-line graph over [0, 8e-8]. */
TlnTrace
traceOutV(const dg::Graph &graph, const lang::Language &language)
{
    validator::validateOrThrow(graph, language);
    compiler::OdeSystem system = compiler::compile(graph, language);
    sim::SimOptions options;
    options.recordDt = 8e-8 / 800.0;
    sim::SimResult result = sim::simulate(system, 0.0, 8e-8, options);
    if (!result.ok()) {
        throw support::SimError(
            cat("t-line trace failed: ", result.failure->message));
    }
    TlnTrace trace;
    int out = system.stateIndex(ptln::outputNode(), 0);
    trace.times = result.trajectory.times();
    trace.volts = result.trajectory.series(out);
    return trace;
}

} // namespace

TlnTrace
fig4LinearTrace(const lang::Language &tln)
{
    // 10 sections x 1ns delay lands the pulse in the paper's 1e-8 ..
    // 3e-8 observation window (Figure 4b).
    ptln::LineSpec spec;
    spec.sections = 10;
    return traceOutV(ptln::buildLine(tln, spec), tln);
}

TlnTrace
fig4BranchedTrace(const lang::Language &tln)
{
    // Mid-line 8-section open stub: the echo's extra 16ns round trip
    // puts it past 4e-8 (the shaded region of Figure 4a).
    ptln::BranchSpec spec;
    spec.line.sections = 10;
    spec.stubSections = 8;
    spec.attachAt = 5;
    return traceOutV(ptln::buildBranched(tln, spec), tln);
}

std::vector<TlnTrace>
fig4MismatchTraces(const lang::Language &gmcTln, bool gmMismatch,
                   int trials, std::uint64_t seedBase)
{
    std::vector<TlnTrace> traces;
    traces.reserve(static_cast<std::size_t>(trials));
    for (int trial = 0; trial < trials; ++trial) {
        ptln::LineSpec spec;
        spec.sections = 10; // matches the Figure 4b linear line
        spec.mismatchC = !gmMismatch;
        spec.mismatchGm = gmMismatch;
        spec.seed = seedBase + static_cast<std::uint64_t>(trial);
        traces.push_back(traceOutV(ptln::buildLine(gmcTln, spec),
                                   gmcTln));
    }
    return traces;
}

SpreadStats
spreadWithinWindow(const std::vector<TlnTrace> &traces, double t0,
                   double t1)
{
    support::panicIf(traces.empty(), "spreadWithinWindow: no traces");
    // Resample every trace onto a common grid, then measure the
    // across-trace range at each time point.
    const std::size_t grid = 200;
    std::vector<std::vector<double>> sampled;
    for (const TlnTrace &trace : traces) {
        std::vector<double> row;
        row.reserve(grid);
        for (std::size_t g = 0; g < grid; ++g) {
            double t = t0 + (t1 - t0) * static_cast<double>(g) /
                                static_cast<double>(grid - 1);
            // Linear interpolation on the trace.
            auto it = std::lower_bound(trace.times.begin(),
                                       trace.times.end(), t);
            if (it == trace.times.begin()) {
                row.push_back(trace.volts.front());
            } else if (it == trace.times.end()) {
                row.push_back(trace.volts.back());
            } else {
                std::size_t hi = static_cast<std::size_t>(
                    it - trace.times.begin());
                std::size_t lo = hi - 1;
                double span = trace.times[hi] - trace.times[lo];
                double alpha =
                    span > 0 ? (t - trace.times[lo]) / span : 0.0;
                row.push_back(trace.volts[lo] +
                              alpha * (trace.volts[hi] -
                                       trace.volts[lo]));
            }
        }
        sampled.push_back(std::move(row));
    }

    double sumRange = 0.0;
    double maxRange = 0.0;
    for (std::size_t g = 0; g < grid; ++g) {
        double lo = sampled[0][g];
        double hi = sampled[0][g];
        for (const auto &row : sampled) {
            lo = std::min(lo, row[g]);
            hi = std::max(hi, row[g]);
        }
        sumRange += hi - lo;
        maxRange = std::max(maxRange, hi - lo);
    }
    return SpreadStats{sumRange / static_cast<double>(grid), maxRange};
}

CnnRun
runCnnEdgeDetect(const lang::Language &language,
                 const pcnn::CnnSpec &spec, const Image &input,
                 const std::vector<double> &frameTimes)
{
    support::panicIf(frameTimes.empty(), "runCnnEdgeDetect: no frames");
    dg::Graph graph = pcnn::buildCnn(language, spec, input.pixels());
    validator::validateOrThrow(graph, language);
    compiler::OdeSystem system = compiler::compile(graph, language);

    double tEnd = frameTimes.back();
    sim::SimOptions options;
    options.recordDt = tEnd / 400.0;
    sim::SimResult result = sim::simulate(system, 0.0, tEnd, options);
    if (!result.ok()) {
        throw support::SimError(
            cat("CNN run failed: ", result.failure->message));
    }

    // Pre-resolve each cell's state index.
    const int w = spec.width;
    const int h = spec.height;
    std::vector<int> cellIndex(static_cast<std::size_t>(w * h));
    for (int r = 0; r < h; ++r)
        for (int c = 0; c < w; ++c)
            cellIndex[static_cast<std::size_t>(r * w + c)] =
                system.stateIndex(pcnn::cellName(r, c), 0);

    CnnRun run;
    run.frameTimes = frameTimes;
    auto satOf = [](double x) {
        return 0.5 * (std::fabs(x + 1.0) - std::fabs(x - 1.0));
    };
    for (double t : frameTimes) {
        Image frame(w, h);
        for (int r = 0; r < h; ++r) {
            for (int c = 0; c < w; ++c) {
                double x = result.trajectory.sampleAt(
                    cellIndex[static_cast<std::size_t>(r * w + c)], t);
                frame.at(r, c) = satOf(x);
            }
        }
        run.frames.push_back(std::move(frame));
    }
    run.finalOutput = run.frames.back().binarized();
    run.outputErrors =
        run.finalOutput.countSignMismatch(input.edgeMap());

    // Convergence: first frame where every cell is fully saturated.
    for (std::size_t f = 0; f < frameTimes.size(); ++f) {
        bool saturated = true;
        for (int r = 0; r < h && saturated; ++r) {
            for (int c = 0; c < w; ++c) {
                double x = result.trajectory.sampleAt(
                    cellIndex[static_cast<std::size_t>(r * w + c)],
                    frameTimes[f]);
                if (std::fabs(x) < 1.0) {
                    saturated = false;
                    break;
                }
            }
        }
        if (saturated) {
            run.converged = true;
            run.convergeTime = frameTimes[f];
            break;
        }
    }
    return run;
}

std::vector<MaxcutOutcome>
runMaxcutSims(const lang::Language &language, bool withOffset, int trials,
              std::uint64_t seedBase)
{
    const double pi = std::numbers::pi;
    // Random restarts. The front end (draw, build, resolve through the
    // engine session) runs one trial per job on the shared pool; each
    // trial draws from its own Rng and fills its own slot, so outputs
    // are independent of the thread count. Compiled programs are
    // shared and content-addressed: a repeated restart sweep over the
    // same seeds skips validation and compilation. The ensemble engine
    // then integrates the whole batch concurrently.
    engine::Session session;
    sim::EnsembleOptions options;
    // Only the final sample is read: record the window's endpoints.
    // Recording never changes a step, so the final state is the same
    // at any recordDt.
    const double window = 5e-8;
    options.sim.recordDt = window;
    const auto count = static_cast<std::size_t>(trials);
    std::vector<MaxcutOutcome> outcomes(count);
    std::vector<engine::SystemPtr> systems(count);
    sim::BatchRunner::shared().parallelFor(
        count, options.numThreads, [&](std::size_t trial) {
            support::Rng rng(seedBase + trial);
            MaxcutOutcome &outcome = outcomes[trial];
            outcome.instance.numVertices = 4;
            for (int a = 0; a < 4; ++a)
                for (int b = a + 1; b < 4; ++b)
                    if (rng.bernoulli(0.5))
                        outcome.instance.edges.emplace_back(a, b);

            pobc::MaxcutSpec spec;
            spec.withOffset = withOffset;
            spec.seed = seedBase + trial;
            for (int v = 0; v < 4; ++v)
                spec.initPhases.push_back(rng.uniform(0.0, 2.0 * pi));

            systems[trial] = session.compile(
                pobc::buildMaxcut(language, outcome.instance, spec),
                language);
        });

    std::vector<sim::SimResult> results =
        session.runEnsemble(systems, 0.0, window, options);

    for (std::size_t trial = 0; trial < results.size(); ++trial) {
        if (!results[trial].ok()) {
            throw support::SimError(
                cat("max-cut trial ", trial, " failed: ",
                    results[trial].failure->message));
        }
        const auto &trajectory = results[trial].trajectory;
        auto final = trajectory.state(trajectory.size() - 1);
        for (int v = 0; v < 4; ++v) {
            outcomes[trial].phases.push_back(
                final[static_cast<std::size_t>(
                    systems[trial]->stateIndex(pobc::oscName(v), 0))]);
        }
    }
    return outcomes;
}

ObcRow
scoreMaxcut(const std::vector<MaxcutOutcome> &outcomes, double d)
{
    int synced = 0;
    int solved = 0;
    for (const MaxcutOutcome &outcome : outcomes) {
        auto partition = pobc::decodePartition(outcome.phases, d);
        if (!partition)
            continue;
        ++synced;
        int cut = pobc::cutSize(outcome.instance, *partition);
        if (cut == pobc::bruteForceMaxCut(outcome.instance))
            ++solved;
    }
    double n = static_cast<double>(outcomes.size());
    return ObcRow{100.0 * synced / n, 100.0 * solved / n};
}

SpiceValidation
runSpiceValidation(const lang::Language &gmcTln, int trials,
                   std::uint64_t seedBase,
                   const SpiceValidationOptions &options)
{
    SpiceValidation report;
    report.total = trials;
    const double tEnd = 4e-8;
    const double spiceDt = 2e-11;
    const std::size_t compareGrid = 400;

    // Phase 1, one trial per job on the shared pool (at the sweep's
    // thread count): draw each trial's random graph, compile the ODE
    // system, and map the netlist. Each trial draws from its own Rng
    // and fills its own slot, so the sweep's statistics are
    // reproducible bit for bit at any thread count. Compilation goes
    // through the engine session: a repeated sweep (same seeds -> same
    // graph contents) hits the artifact cache and skips ILP validation
    // and lowering per trial.
    engine::Session session(
        engine::SessionOptions{.caching = options.cache});
    const auto count = static_cast<std::size_t>(trials);
    std::vector<engine::SystemPtr> systems(count);
    std::vector<spice::MappedTln> mapped(count);
    sim::BatchRunner::shared().parallelFor(
        count, options.numThreads, [&](std::size_t trial) {
            support::Rng rng(seedBase + trial);
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

            dg::Graph graph = [&]() {
                if (rng.bernoulli(0.5)) {
                    ptln::BranchSpec branch;
                    branch.line = spec;
                    branch.stubSections =
                        static_cast<int>(rng.uniformInt(1, 4));
                    branch.attachAt = static_cast<int>(
                        rng.uniformInt(1, spec.sections - 1));
                    return ptln::buildBranched(gmcTln, branch);
                }
                return ptln::buildLine(gmcTln, spec);
            }();
            systems[trial] = session.compile(graph, gmcTln);
            mapped[trial] = spice::mapTlnToSpice(graph, gmcTln);
        });
    // A trial that fails to build or map throws out of the fan-out, so
    // every trial reaching here produced a netlist.
    report.mapped = static_cast<int>(mapped.size());

    std::vector<const spice::Netlist *> netlists;
    netlists.reserve(mapped.size());
    for (const spice::MappedTln &map : mapped)
        netlists.push_back(&map.netlist);
    report.spiceGroups =
        static_cast<int>(spice::countStructureGroups(netlists));

    sim::EnsembleOptions odeOptions;
    odeOptions.sim.relTol = 1e-8;
    odeOptions.sim.absTol = 1e-12;
    odeOptions.sim.recordDt = tEnd / 2000.0;
    // Both sides store only the node the scoring reads.
    odeOptions.sim.save = {ptln::outputNode()};
    odeOptions.numThreads = options.numThreads;
    spice::TransientBatchOptions batchOptions;
    batchOptions.save = {ptln::outputNode()};
    batchOptions.numThreads = options.numThreads;

    // Phases 2-4, chunked: each block runs the DG side as one
    // adaptive-ODE ensemble and the SPICE side as one transient batch
    // on the shared worker pool, then is scored and dropped — full
    // batch parallelism within a block, peak memory bounded by the
    // block size instead of the sweep size. Per-trial results (and so
    // the statistics) are independent of the chunking.
    const int chunk = 128;
    for (int base = 0; base < trials; base += chunk) {
        const int end = std::min(trials, base + chunk);
        std::vector<const compiler::OdeSystem *> odeSlice;
        std::vector<const spice::Netlist *> netSlice;
        odeSlice.reserve(static_cast<std::size_t>(end - base));
        netSlice.reserve(static_cast<std::size_t>(end - base));
        for (int trial = base; trial < end; ++trial) {
            odeSlice.push_back(
                systems[static_cast<std::size_t>(trial)].get());
            netSlice.push_back(netlists[static_cast<std::size_t>(trial)]);
        }
        std::vector<sim::SimResult> dgResults =
            sim::simulateEnsemble(odeSlice, 0.0, tEnd, odeOptions);
        engine::SweepStats sweepStats;
        std::vector<spice::TransientResult> spiceResults =
            session.runSweep(netSlice, 0.0, tEnd, spiceDt, batchOptions,
                             &sweepStats);
        report.spiceFactorHits +=
            static_cast<int>(sweepStats.factorHits);
        report.spiceFactorMisses +=
            static_cast<int>(sweepStats.factorMisses);

        // Paired per-trial RMSE statistics at OUT_V.
        for (int trial = base; trial < end; ++trial) {
            auto idx = static_cast<std::size_t>(trial);
            auto local = static_cast<std::size_t>(trial - base);
            if (!dgResults[local].ok()) {
                throw support::SimError(
                    cat("SPICE validation trial ", trial, " diverged: ",
                        dgResults[local].failure->message));
            }
            if (!spiceResults[local].ok()) {
                throw support::SimError(
                    cat("SPICE validation trial ", trial,
                        " transient failed: ",
                        spiceResults[local].failure->message));
            }
            std::vector<double> dgSeries =
                dgResults[local].trajectory.resample(
                    systems[idx]->stateIndex(ptln::outputNode(), 0),
                    0.0, tEnd, compareGrid);
            std::vector<double> spiceAll = spiceResults[local].series(
                static_cast<std::size_t>(
                    mapped[idx].circuitNodeOf.at(ptln::outputNode())));
            // Resample the (uniform-grid) SPICE series onto
            // compareGrid.
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
                spiceSeries.push_back(
                    spiceAll[lo] +
                    alpha * (spiceAll[hi] - spiceAll[lo]));
            }

            double rmse = support::relativeRmse(dgSeries, spiceSeries);
            report.meanRmse += rmse;
            report.maxRmse = std::max(report.maxRmse, rmse);
            if (rmse < 0.01)
                ++report.under1pct;
        }
    }
    if (report.total > 0)
        report.meanRmse /= report.total;
    return report;
}

} // namespace ark::apps::experiments
