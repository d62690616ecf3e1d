/**
 * @file
 * Tests for deterministic fault injection (support/faultinject.h) and
 * the engine::Session retry-with-degradation supervisor built on it:
 * every recovery path — lane fault -> scalar retry, sparse
 * SingularMatrix -> dense fallback, worker-task fault capture,
 * forced cache miss/eviction rebuild, budget and deadline retirement,
 * dt/tolerance degradation — fires on demand and lands bit-identical
 * (or tolerance-equivalent where the contract says so) to the
 * equivalent clean run, with RunReport accounting exactly. The TapeNan
 * poison site fires alike on the interpreted and JIT tiers, one-lane
 * blocks and blocks compacted to width 1 included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <memory>
#include <vector>

#include "compiler/compiler.h"
#include "engine/cache.h"
#include "engine/session.h"
#include "expr/cjit.h"
#include "lang/registry.h"
#include "sim/sim.h"
#include "spice/mna.h"
#include "spice/netlist.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "support/telemetry.h"
#include "validator/validator.h"

namespace {

using namespace ark;
using compiler::OdeSystem;
using engine::RunPolicy;
using engine::RunReport;
using engine::Session;
using lang::GraphBuilder;
using sim::EnsembleOptions;
using sim::SimResult;
using support::FaultInjector;
using support::FaultSite;
using support::SimError;

/** Every test starts and ends disarmed; sites are process-global. */
class FaultInjectTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::disarmAll(); }
    void TearDown() override { FaultInjector::disarmAll(); }
};

/** x'' = -w^2 x built through the full Ark pipeline. */
OdeSystem
oscillatorSystem(lang::LanguageRegistry &registry, double w)
{
    if (!registry.findLanguage("oscfi")) {
        registry.addProgram(R"(
            lang oscfi {
                ntyp(2,sum) X {attr w2=real[0,100000],
                               init(0) real[-10,10],
                               init(1) real[-10,10]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= -s.w2*var(s);
            }
        )");
    }
    GraphBuilder builder(registry.language("oscfi"), 0);
    builder.node("x", "X");
    builder.attr("x", "w2", w * w);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 1.0);
    builder.init("x", 1, 0.0);
    return compiler::compile(builder.take(), registry.language("oscfi"));
}

std::vector<engine::SystemPtr>
oscillatorBatch(lang::LanguageRegistry &registry, std::size_t count)
{
    std::vector<engine::SystemPtr> systems;
    for (std::size_t i = 0; i < count; ++i)
        systems.push_back(std::make_shared<const OdeSystem>(
            oscillatorSystem(registry, 2.0 + 0.1 * double(i))));
    return systems;
}

/** Driven RC cell: well-conditioned, one structure for every r. */
spice::Netlist
rcCell(double r)
{
    spice::Netlist netlist;
    int v = netlist.addNode("v");
    netlist.resistor("R", v, spice::kGround, r);
    netlist.capacitor("C", v, spice::kGround, 1e-9);
    netlist.currentSource("I", spice::kGround, v, 1e-3);
    return netlist;
}

void
expectIdenticalResults(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.ok(), b.ok());
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    EXPECT_EQ(a.steps, b.steps);
    for (std::size_t s = 0; s < a.trajectory.size(); ++s) {
        EXPECT_EQ(a.trajectory.time(s), b.trajectory.time(s));
        auto stateA = a.trajectory.state(s);
        auto stateB = b.trajectory.state(s);
        ASSERT_EQ(stateA.size(), stateB.size());
        for (std::size_t i = 0; i < stateA.size(); ++i)
            EXPECT_EQ(stateA[i], stateB[i]) << "sample " << s;
    }
}

void
expectIdenticalTransients(const spice::TransientResult &a,
                          const spice::TransientResult &b)
{
    ASSERT_EQ(a.ok(), b.ok());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a.time(s), b.time(s));
        auto stateA = a.state(s);
        auto stateB = b.state(s);
        for (std::size_t i = 0; i < stateA.size(); ++i)
            EXPECT_EQ(stateA[i], stateB[i]) << "sample " << s;
    }
}

TEST_F(FaultInjectTest, SiteCountsOccurrencesAndFiresWindow)
{
    // arm(site, skip, fires) fires occurrences [skip, skip + fires)
    // exactly; counters survive disarmAll until the next arm.
    FaultInjector::arm(FaultSite::WorkerTask, 2, 2);
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(
            FaultInjector::shouldFire(FaultSite::WorkerTask));
    EXPECT_EQ(fired,
              (std::vector<bool>{false, false, true, true, false,
                                 false}));
    EXPECT_EQ(FaultInjector::seen(FaultSite::WorkerTask), 6u);
    EXPECT_EQ(FaultInjector::fired(FaultSite::WorkerTask), 2u);

    FaultInjector::disarmAll();
    // Disarmed calls neither fire nor count.
    EXPECT_FALSE(FaultInjector::shouldFire(FaultSite::WorkerTask));
    EXPECT_EQ(FaultInjector::seen(FaultSite::WorkerTask), 6u);
    // Re-arming resets the counters.
    FaultInjector::arm(FaultSite::WorkerTask, 0, 1);
    EXPECT_EQ(FaultInjector::seen(FaultSite::WorkerTask), 0u);
    EXPECT_TRUE(FaultInjector::shouldFire(FaultSite::WorkerTask));
    EXPECT_FALSE(FaultInjector::shouldFire(FaultSite::WorkerTask));
}

TEST_F(FaultInjectTest, LaneTapeFaultRecoversScalarBitIdentical)
{
    // One injected NaN in the first lane-tape evaluation retires lane
    // 0 as Diverged; the supervisor's scalar retry re-runs exactly
    // that instance and must land bit-identical to the clean run
    // (Rk4 lanes are bit-identical to one-lane runs by contract).
    lang::LanguageRegistry registry;
    std::vector<engine::SystemPtr> systems =
        oscillatorBatch(registry, 4);
    Session session;
    EnsembleOptions options;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 1e-3;
    options.sim.recordDt = 1e-2;
    options.numThreads = 1;
    std::vector<SimResult> clean =
        session.runEnsemble(systems, 0.0, 1.0, options);

    FaultInjector::arm(FaultSite::TapeNan, 0, 1);
    RunPolicy policy;
    policy.maxAttempts = 2;
    RunReport report;
    std::vector<SimResult> recovered = session.runEnsemble(
        systems, 0.0, 1.0, options, policy, &report);
    EXPECT_EQ(FaultInjector::fired(FaultSite::TapeNan), 1u);

    ASSERT_EQ(recovered.size(), clean.size());
    for (std::size_t i = 0; i < recovered.size(); ++i)
        expectIdenticalResults(recovered[i], clean[i]);

    EXPECT_EQ(report.instances, 4u);
    EXPECT_EQ(report.firstAttemptFailures, 1u);
    EXPECT_EQ(report.scalarRetries, 1u);
    EXPECT_EQ(report.relaxedRetries, 0u);
    EXPECT_EQ(report.recovered, 1u);
    EXPECT_EQ(report.unrecovered, 0u);
    ASSERT_EQ(report.records.size(), 1u);
    EXPECT_EQ(report.records[0].index, 0u);
    EXPECT_EQ(report.records[0].attempts, 2);
    EXPECT_TRUE(report.records[0].recovered);
    ASSERT_EQ(report.records[0].actions.size(), 1u);
    EXPECT_EQ(report.records[0].actions[0],
              RunReport::Action::ScalarRetry);
}

/**
 * Runs `drill` with one armed TapeNan poison, first with the JIT off
 * and then, when the host has a C toolchain, with it on. Both tiers
 * must fire the site equally often and retire the same instances with
 * the same structured failures. Returns the interpreted results.
 */
std::vector<SimResult>
expectTapeNanParity(
    const std::function<std::vector<SimResult>(bool jit)> &drill)
{
    FaultInjector::arm(FaultSite::TapeNan, 0, 1);
    std::vector<SimResult> interpreted = drill(false);
    const std::uint64_t fired = FaultInjector::fired(FaultSite::TapeNan);
    EXPECT_EQ(fired, 1u);
    if (!expr::jitToolchainAvailable())
        return interpreted; // no kernel to compare against

    setenv("ARK_JIT_CACHE_DIR", "", 1); // keep the disk cache out
    FaultInjector::arm(FaultSite::TapeNan, 0, 1);
    std::vector<SimResult> jitted = drill(true);
    unsetenv("ARK_JIT_CACHE_DIR");
    EXPECT_EQ(FaultInjector::fired(FaultSite::TapeNan), fired);
    EXPECT_EQ(jitted.size(), interpreted.size());
    for (std::size_t i = 0; i < std::min(jitted.size(), interpreted.size());
         ++i) {
        const SimResult &a = interpreted[i];
        const SimResult &b = jitted[i];
        EXPECT_EQ(a.ok(), b.ok()) << "instance " << i;
        if (a.ok() || b.ok())
            continue;
        EXPECT_EQ(a.failure->reason, b.failure->reason);
        EXPECT_EQ(a.failure->step, b.failure->step);
        EXPECT_EQ(a.failure->stateIndex, b.failure->stateIndex);
        EXPECT_EQ(a.failure->time, b.failure->time);
        EXPECT_EQ(a.failure->message, b.failure->message);
    }
    return interpreted;
}

TEST_F(FaultInjectTest, TapeNanFiresAlikeOnScalarPathWithJitOnAndOff)
{
    // laneBatching off: the singleton runs as a one-lane block, whose
    // first RHS evaluation is poisoned under both integrators.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    for (sim::Method method : {sim::Method::Rk4, sim::Method::Dopri5}) {
        std::vector<SimResult> results =
            expectTapeNanParity([&](bool jit) {
                EnsembleOptions options;
                options.sim.method = method;
                options.sim.dt = 1e-3;
                options.sim.recordDt = 1e-2;
                options.sim.jit = jit;
                options.laneBatching = false;
                options.numThreads = 1;
                return sim::simulateEnsemble({&system}, 0.0, 1.0, options);
            });
        ASSERT_EQ(results.size(), 1u);
        ASSERT_FALSE(results[0].ok());
        EXPECT_EQ(results[0].failure->reason, sim::AbortReason::Diverged);
    }
}

TEST_F(FaultInjectTest, TapeNanFiresAlikeOnSpilledSurvivorWithJitOnAndOff)
{
    // A Dopri5 lane block of two whose first member starts nonfinite:
    // it retires before the first step, the survivor finishes the job
    // in a width-1 block (an ark.sim.spills event), and that block's
    // first RHS evaluation is the poisoned one.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    const std::vector<std::vector<double>> initials{
        {std::numeric_limits<double>::quiet_NaN(), 0.0},
        system.initialState()};

    const bool metricsWere = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    telemetry::Counter &spills =
        telemetry::Registry::shared().counter("ark.sim.spills");
    const std::uint64_t spillsBefore = spills.value();
    std::vector<SimResult> results = expectTapeNanParity([&](bool jit) {
        EnsembleOptions options;
        options.sim.recordDt = 1e-2;
        options.sim.jit = jit;
        options.numThreads = 1;
        return sim::simulateEnsemble(system, initials, 0.0, 1.0, options);
    });
    const std::uint64_t spillsAfter = spills.value();
    telemetry::setMetricsEnabled(metricsWere);

    EXPECT_GT(spillsAfter, spillsBefore);
    ASSERT_EQ(results.size(), 2u);
    for (const SimResult &result : results) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.failure->reason, sim::AbortReason::Diverged);
    }
}

TEST_F(FaultInjectTest, WorkerFaultIsStructuredAndRetryable)
{
    lang::LanguageRegistry registry;
    std::vector<engine::SystemPtr> systems =
        oscillatorBatch(registry, 4);
    Session session;
    EnsembleOptions options;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 1e-3;
    options.sim.recordDt = 1e-2;
    options.numThreads = 1;
    std::vector<SimResult> clean =
        session.runEnsemble(systems, 0.0, 1.0, options);

    // Historical contract: without structuredFaults the injected task
    // fault is rethrown after the batch drains.
    FaultInjector::arm(FaultSite::WorkerTask, 0, 1);
    EXPECT_THROW(session.runEnsemble(systems, 0.0, 1.0, options),
                 SimError);

    // With structuredFaults the same fault is per-instance data.
    FaultInjector::arm(FaultSite::WorkerTask, 0, 1);
    EnsembleOptions structured = options;
    structured.structuredFaults = true;
    std::vector<SimResult> faulted =
        session.runEnsemble(systems, 0.0, 1.0, structured);
    for (const SimResult &result : faulted) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.failure->reason, sim::AbortReason::Fault);
        EXPECT_NE(result.failure->message.find("worker task fault"),
                  std::string::npos);
    }

    // And the supervisor turns it into a full recovery: all four
    // block members retry scalar and land bit-identical to clean.
    FaultInjector::arm(FaultSite::WorkerTask, 0, 1);
    RunPolicy policy;
    policy.maxAttempts = 2;
    RunReport report;
    std::vector<SimResult> recovered = session.runEnsemble(
        systems, 0.0, 1.0, options, policy, &report);
    for (std::size_t i = 0; i < recovered.size(); ++i)
        expectIdenticalResults(recovered[i], clean[i]);
    EXPECT_EQ(report.firstAttemptFailures, 4u);
    EXPECT_EQ(report.scalarRetries, 4u);
    EXPECT_EQ(report.recovered, 4u);
    EXPECT_EQ(report.unrecovered, 0u);
}

TEST_F(FaultInjectTest, BudgetLadderDegradesDtThenRecovers)
{
    // Rk4 at dt = 2e-3 over [0, 1] needs 500 steps; a 400-step budget
    // exhausts it. Attempt 2 (pure scalar retry) hits the same
    // budget; attempt 3 doubles dt per the policy and completes. The
    // recovered result must be bit-identical to a clean run at the
    // degraded dt — the report says exactly which degradation
    // produced it.
    lang::LanguageRegistry registry;
    std::vector<engine::SystemPtr> systems =
        oscillatorBatch(registry, 1);
    Session session;
    EnsembleOptions options;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 2e-3;
    options.sim.recordDt = 1e-2;
    options.sim.maxSteps = 400;
    options.numThreads = 1;

    RunPolicy policy;
    policy.maxAttempts = 3;
    policy.relaxOnRetry = true;
    policy.dtFactor = 2.0; // fixed-step degradation = coarser grid
    policy.tolFactor = 1.0;
    RunReport report;
    std::vector<SimResult> results = session.runEnsemble(
        systems, 0.0, 1.0, options, policy, &report);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok());

    sim::SimOptions degraded = options.sim;
    degraded.dt = 4e-3;
    SimResult reference = sim::simulate(
        *systems[0], systems[0]->initialState(), 0.0, 1.0, degraded);
    expectIdenticalResults(results[0], reference);

    EXPECT_EQ(report.firstAttemptFailures, 1u);
    EXPECT_EQ(report.scalarRetries, 1u);
    EXPECT_EQ(report.relaxedRetries, 1u);
    EXPECT_EQ(report.recovered, 1u);
    EXPECT_EQ(report.budgetHits, 0u); // final outcome is healthy
    ASSERT_EQ(report.records.size(), 1u);
    EXPECT_EQ(report.records[0].attempts, 3);
    ASSERT_EQ(report.records[0].actions.size(), 2u);
    EXPECT_EQ(report.records[0].actions[0],
              RunReport::Action::ScalarRetry);
    EXPECT_EQ(report.records[0].actions[1],
              RunReport::Action::RelaxedRetry);
}

TEST_F(FaultInjectTest, UnrecoveredBudgetAccountsExactly)
{
    // With degradation disabled the retry hits the same budget: the
    // report must say two attempts, one scalar retry, zero recovered,
    // and one terminal BudgetExhausted.
    lang::LanguageRegistry registry;
    std::vector<engine::SystemPtr> systems =
        oscillatorBatch(registry, 1);
    Session session;
    EnsembleOptions options;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 2e-3;
    options.sim.maxSteps = 400;
    options.numThreads = 1;

    RunPolicy policy;
    policy.maxAttempts = 2;
    RunReport report;
    std::vector<SimResult> results = session.runEnsemble(
        systems, 0.0, 1.0, options, policy, &report);
    ASSERT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].failure->reason,
              sim::AbortReason::BudgetExhausted);
    EXPECT_EQ(report.firstAttemptFailures, 1u);
    EXPECT_EQ(report.scalarRetries, 1u);
    EXPECT_EQ(report.recovered, 0u);
    EXPECT_EQ(report.unrecovered, 1u);
    EXPECT_EQ(report.budgetHits, 1u);
    ASSERT_EQ(report.records.size(), 1u);
    EXPECT_EQ(report.records[0].attempts, 2);
    EXPECT_FALSE(report.records[0].recovered);
    EXPECT_FALSE(report.records[0].finalError.empty());
}

TEST_F(FaultInjectTest, DeadlineRetirementIsNeverRetried)
{
    lang::LanguageRegistry registry;
    std::vector<engine::SystemPtr> systems =
        oscillatorBatch(registry, 3);
    Session session;
    EnsembleOptions options;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 1e-3;
    options.numThreads = 1;
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::seconds(1);

    RunPolicy policy;
    policy.maxAttempts = 3;
    RunReport report;
    std::vector<SimResult> results = session.runEnsemble(
        systems, 0.0, 1.0, options, policy, &report);
    for (const SimResult &result : results) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.failure->reason,
                  sim::AbortReason::DeadlineExceeded);
    }
    EXPECT_EQ(report.firstAttemptFailures, 3u);
    EXPECT_EQ(report.deadlineHits, 3u);
    EXPECT_EQ(report.scalarRetries, 0u);
    EXPECT_EQ(report.relaxedRetries, 0u);
    EXPECT_EQ(report.unrecovered, 3u);
}

TEST_F(FaultInjectTest, SparsePivotFaultFallsBackDense)
{
    // Every sparse factorization is forced to fail, so each instance
    // reports SingularMatrix; the supervisor's dense fallback (which
    // never touches SparseLu) recovers all of them, matching the
    // clean sparse run at the documented sparse-vs-dense tolerance.
    std::vector<spice::Netlist> cells;
    for (double r : {0.5e3, 1.0e3, 2.0e3})
        cells.push_back(rcCell(r));
    std::vector<const spice::Netlist *> netlists;
    for (const spice::Netlist &cell : cells)
        netlists.push_back(&cell);

    engine::ArtifactCache cache;
    engine::SessionOptions sessionOptions;
    sessionOptions.cache = &cache;
    Session session(sessionOptions);
    const double t1 = 5e-6, dt = 1e-8;
    std::vector<spice::TransientResult> clean =
        session.runSweep(netlists, 0.0, t1, dt);
    ASSERT_TRUE(clean[0].ok());

    // Drop the steppers the clean sweep cached — a warm factor would
    // let the armed run skip factorization and never hit the site.
    cache.clear();
    FaultInjector::arm(FaultSite::SparseLuPivot, 0, 1u << 20);
    spice::TransientBatchOptions options;
    RunPolicy policy;
    policy.maxAttempts = 2;
    RunReport report;
    std::vector<spice::TransientResult> recovered = session.runSweep(
        netlists, 0.0, t1, dt, options, policy, &report);
    EXPECT_GT(FaultInjector::fired(FaultSite::SparseLuPivot), 0u);
    FaultInjector::disarmAll();

    ASSERT_EQ(recovered.size(), clean.size());
    for (std::size_t i = 0; i < recovered.size(); ++i) {
        ASSERT_TRUE(recovered[i].ok()) << "instance " << i;
        ASSERT_EQ(recovered[i].size(), clean[i].size());
        for (std::size_t s = 0; s < clean[i].size(); ++s) {
            auto a = recovered[i].state(s);
            auto b = clean[i].state(s);
            for (std::size_t k = 0; k < a.size(); ++k)
                EXPECT_NEAR(a[k], b[k],
                            1e-9 * (1.0 + std::abs(b[k])));
        }
    }
    EXPECT_EQ(report.firstAttemptFailures, 3u);
    EXPECT_EQ(report.denseFallbacks, 3u);
    EXPECT_EQ(report.recovered, 3u);
    EXPECT_EQ(report.unrecovered, 0u);
    for (const RunReport::InstanceRecord &record : report.records) {
        EXPECT_EQ(record.attempts, 2);
        ASSERT_EQ(record.actions.size(), 1u);
        EXPECT_EQ(record.actions[0], RunReport::Action::DenseFallback);
    }
}

TEST_F(FaultInjectTest, NonfiniteSweepRelaxedRetryAccountsExactly)
{
    // Negative-conductance cell: the underlying ODE is genuinely
    // unstable, so every relaxed-dt rung re-fails with
    // NonfiniteState. The ladder must consume exactly its budgeted
    // attempts, record each RelaxedRetry, and report the instance
    // unrecovered with its terminal failure — while a healthy
    // co-swept instance is untouched.
    spice::Netlist unstable;
    int n = unstable.addNode("n");
    unstable.capacitor("C", n, spice::kGround, 1.0);
    unstable.vccs("G", spice::kGround, n, n, spice::kGround, 1999.0);
    unstable.currentSource("I", spice::kGround, n, 1.0);
    spice::Netlist healthy = rcCell(1.0e3);
    std::vector<const spice::Netlist *> netlists{&unstable, &healthy};

    engine::ArtifactCache cache;
    engine::SessionOptions sessionOptions;
    sessionOptions.cache = &cache;
    Session session(sessionOptions);
    RunPolicy policy;
    policy.maxAttempts = 3;
    policy.relaxOnRetry = true; // dt halves per retry rung
    RunReport report;
    // Horizon sized so every rung overflows: the per-step trapezoidal
    // amplification (2/h+1999)/(2/h-1999) is ~3999 at dt=1e-3, ~3.0
    // at 5e-4, ~1.67 at 2.5e-4 — all cross 1e308 well before t=0.5.
    std::vector<spice::TransientResult> results = session.runSweep(
        netlists, 0.0, 0.5, 1e-3, spice::TransientBatchOptions{},
        policy, &report);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].failure->reason,
              spice::TransientAbort::NonfiniteState);
    EXPECT_TRUE(results[1].ok());

    EXPECT_EQ(report.instances, 2u);
    EXPECT_EQ(report.firstAttemptFailures, 1u);
    EXPECT_EQ(report.relaxedRetries, 2u);
    EXPECT_EQ(report.denseFallbacks, 0u);
    EXPECT_EQ(report.recovered, 0u);
    EXPECT_EQ(report.unrecovered, 1u);
    ASSERT_EQ(report.records.size(), 1u);
    EXPECT_EQ(report.records[0].index, 0u);
    EXPECT_EQ(report.records[0].attempts, 3);
    ASSERT_EQ(report.records[0].actions.size(), 2u);
    EXPECT_EQ(report.records[0].actions[0],
              RunReport::Action::RelaxedRetry);
    EXPECT_EQ(report.records[0].actions[1],
              RunReport::Action::RelaxedRetry);
    EXPECT_FALSE(report.records[0].finalError.empty());
}

TEST_F(FaultInjectTest, ForcedCacheMissRebuildsBitIdentical)
{
    std::vector<spice::Netlist> cells;
    for (double r : {0.5e3, 1.0e3, 2.0e3, 4.0e3})
        cells.push_back(rcCell(r));
    std::vector<const spice::Netlist *> netlists;
    for (const spice::Netlist &cell : cells)
        netlists.push_back(&cell);

    engine::ArtifactCache cache;
    engine::SessionOptions sessionOptions;
    sessionOptions.cache = &cache;
    Session session(sessionOptions);
    const double t1 = 5e-6, dt = 1e-8;

    engine::SweepStats coldStats;
    std::vector<spice::TransientResult> cold =
        session.runSweep(netlists, 0.0, t1, dt,
                         spice::TransientBatchOptions{}, &coldStats);
    engine::SweepStats warmStats;
    std::vector<spice::TransientResult> warm =
        session.runSweep(netlists, 0.0, t1, dt,
                         spice::TransientBatchOptions{}, &warmStats);
    EXPECT_GT(warmStats.factorHits, 0u);

    // Force every lookup to miss: the sweep must rebuild all factors
    // and still report results bit-identical to the warm run.
    FaultInjector::arm(FaultSite::CacheMiss, 0, 1u << 20);
    engine::SweepStats forcedStats;
    std::vector<spice::TransientResult> forced =
        session.runSweep(netlists, 0.0, t1, dt,
                         spice::TransientBatchOptions{}, &forcedStats);
    EXPECT_GT(FaultInjector::fired(FaultSite::CacheMiss), 0u);
    FaultInjector::disarmAll();
    EXPECT_EQ(forcedStats.factorHits, 0u);
    EXPECT_EQ(forcedStats.factorMisses,
              coldStats.factorHits + coldStats.factorMisses);
    ASSERT_EQ(forced.size(), warm.size());
    for (std::size_t i = 0; i < forced.size(); ++i)
        expectIdenticalTransients(forced[i], warm[i]);
}

TEST_F(FaultInjectTest, ForcedEvictionKeepsResultsAndCounts)
{
    std::vector<spice::Netlist> cells;
    for (double r : {0.5e3, 1.0e3})
        cells.push_back(rcCell(r));
    std::vector<const spice::Netlist *> netlists;
    for (const spice::Netlist &cell : cells)
        netlists.push_back(&cell);

    engine::ArtifactCache cache;
    engine::SessionOptions sessionOptions;
    sessionOptions.cache = &cache;
    Session session(sessionOptions);
    const double t1 = 5e-6, dt = 1e-8;
    std::vector<spice::TransientResult> clean =
        session.runSweep(netlists, 0.0, t1, dt);
    cache.clear();

    // Every inserted stepper is evicted immediately: callers still
    // get their built artifact (results unchanged) but nothing stays
    // cached.
    FaultInjector::arm(FaultSite::CacheEvict, 0, 1u << 20);
    std::vector<spice::TransientResult> evicted =
        session.runSweep(netlists, 0.0, t1, dt);
    FaultInjector::disarmAll();
    ASSERT_EQ(evicted.size(), clean.size());
    for (std::size_t i = 0; i < evicted.size(); ++i)
        expectIdenticalTransients(evicted[i], clean[i]);
    engine::CacheStats stats = cache.stats();
    EXPECT_GT(stats.stepperEvictions, 0u);
    EXPECT_EQ(stats.steppersCached, 0u);
}

TEST_F(FaultInjectTest, ForcedMissCountsIdenticallyInEveryLedger)
{
    // Three ledgers account for cache misses: CacheStats member
    // tallies, the ark.cache.* registry counters, and SweepStats
    // factorMisses. A FaultInjector-forced miss is a miss in all
    // three — the increments sit at the same program points, so the
    // deltas must agree exactly.
    std::vector<spice::Netlist> cells;
    for (double r : {0.5e3, 1.0e3, 2.0e3})
        cells.push_back(rcCell(r));
    std::vector<const spice::Netlist *> netlists;
    for (const spice::Netlist &cell : cells)
        netlists.push_back(&cell);

    engine::ArtifactCache cache;
    engine::SessionOptions sessionOptions;
    sessionOptions.cache = &cache;
    Session session(sessionOptions);
    const double t1 = 5e-6, dt = 1e-8;

    // Warm the cache so every armed-run lookup would hit without the
    // fault — all misses below are forced ones.
    std::vector<spice::TransientResult> warm =
        session.runSweep(netlists, 0.0, t1, dt);

    const bool metricsWere = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    const telemetry::MetricsSnapshot before =
        telemetry::Registry::shared().snapshot();
    const engine::CacheStats statsBefore = cache.stats();

    FaultInjector::arm(FaultSite::CacheMiss, 0, 1u << 20);
    engine::SweepStats sweepStats;
    std::vector<spice::TransientResult> forced =
        session.runSweep(netlists, 0.0, t1, dt,
                         spice::TransientBatchOptions{}, &sweepStats);
    FaultInjector::disarmAll();

    const telemetry::MetricsSnapshot after =
        telemetry::Registry::shared().snapshot();
    const engine::CacheStats statsAfter = cache.stats();
    telemetry::setMetricsEnabled(metricsWere);

    const std::uint64_t statsDelta =
        statsAfter.stepperMisses - statsBefore.stepperMisses;
    const double registryDelta =
        after.value("ark.cache.stepper_misses") -
        before.value("ark.cache.stepper_misses");
    EXPECT_GT(statsDelta, 0u);
    EXPECT_EQ(registryDelta, static_cast<double>(statsDelta));
    EXPECT_EQ(sweepStats.factorMisses, statsDelta);
    EXPECT_EQ(sweepStats.factorHits, 0u);
    EXPECT_EQ(statsAfter.stepperHits, statsBefore.stepperHits);

    ASSERT_EQ(forced.size(), warm.size());
    for (std::size_t i = 0; i < forced.size(); ++i)
        expectIdenticalTransients(forced[i], warm[i]);
}

TEST_F(FaultInjectTest, DefaultPolicyIsBitIdenticalToPlainRun)
{
    // RunPolicy at defaults (maxAttempts 1) must not perturb
    // anything: same results as the unsupervised overload, zero
    // retry counters.
    lang::LanguageRegistry registry;
    std::vector<engine::SystemPtr> systems =
        oscillatorBatch(registry, 4);
    Session session;
    EnsembleOptions options;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 1e-3;
    options.sim.recordDt = 1e-2;
    std::vector<SimResult> plain =
        session.runEnsemble(systems, 0.0, 1.0, options);
    RunReport report;
    std::vector<SimResult> supervised = session.runEnsemble(
        systems, 0.0, 1.0, options, RunPolicy{}, &report);
    ASSERT_EQ(supervised.size(), plain.size());
    for (std::size_t i = 0; i < supervised.size(); ++i)
        expectIdenticalResults(supervised[i], plain[i]);
    EXPECT_EQ(report.firstAttemptFailures, 0u);
    EXPECT_EQ(report.scalarRetries + report.relaxedRetries +
                  report.denseFallbacks,
              0u);
}

} // namespace
