/**
 * @file
 * Tests for the ODE simulation engine against closed-form solutions:
 * exponential decay, harmonic oscillation (order-2 nodes), driven
 * systems, method agreement, convergence order and tight-tolerance
 * accuracy at one lane and across an 8-lane block, recorded slopes,
 * steady-state detection, trajectory sampling, and failure modes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "compiler/compiler.h"
#include "lang/func.h"
#include "lang/registry.h"
#include "sim/sim.h"
#include "support/error.h"

namespace {

using namespace ark;
using compiler::OdeSystem;
using lang::GraphBuilder;
using sim::Method;
using sim::SimOptions;
using sim::SimResult;
using support::SimError;

/** dx/dt = -k x built through the full Ark pipeline. */
OdeSystem
decaySystem(lang::LanguageRegistry &registry, double k, double x0)
{
    if (!registry.findLanguage("decay")) {
        registry.addProgram(R"(
            lang decay {
                ntyp(1,sum) X {attr k=real[0,100]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= -s.k*var(s);
            }
        )");
    }
    GraphBuilder builder(registry.language("decay"), 0);
    builder.node("x", "X");
    builder.attr("x", "k", k);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, x0);
    return compiler::compile(builder.take(),
                             registry.language("decay"));
}

/** x'' = -w^2 x (order-2 node) — exact solution cos(w t). */
OdeSystem
oscillatorSystem(lang::LanguageRegistry &registry, double w)
{
    if (!registry.findLanguage("osc2")) {
        registry.addProgram(R"(
            lang osc2 {
                ntyp(2,sum) X {attr w2=real[0,1000],
                               init(0) real[-10,10],
                               init(1) real[-10,10]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= -s.w2*var(s);
            }
        )");
    }
    GraphBuilder builder(registry.language("osc2"), 0);
    builder.node("x", "X");
    builder.attr("x", "w2", w * w);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 1.0);
    builder.init("x", 1, 0.0);
    return compiler::compile(builder.take(), registry.language("osc2"));
}

/**
 * x' = -sqrt(x): from x0 > 0 the state empties at t = 2 sqrt(x0) and
 * dips negative, so the RHS goes NaN while the state is still finite.
 */
OdeSystem
drainSystem(lang::LanguageRegistry &registry)
{
    if (!registry.findLanguage("drain")) {
        registry.addProgram(R"(
            lang drain {
                ntyp(1,sum) X {};
                etyp E {};
                prod(e:E,s:X->s:X) s <= 0-sqrt(var(s));
            }
        )");
    }
    GraphBuilder builder(registry.language("drain"), 0);
    builder.node("x", "X");
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 1.0);
    return compiler::compile(builder.take(), registry.language("drain"));
}

/** Eight distinct amplitudes in [0.5, 2]: one full lane block. */
const std::vector<double> kAmplitudes{0.5,  0.7, 0.9,  1.1,
                                      1.3,  1.5, 1.75, 2.0};

/**
 * `score(result, amplitude)` for a simulate() run from amplitude 1
 * (the system's own initial state) followed by every lane of one
 * 8-instance simulateEnsemble block started from kAmplitudes, the
 * first state variable set to the amplitude and the rest to zero.
 */
std::vector<double>
scoreEveryLane(const OdeSystem &system, double t1,
               const SimOptions &options,
               const std::function<double(const SimResult &, double)> &score)
{
    std::vector<double> scores{
        score(sim::simulate(system, 0.0, t1, options), 1.0)};
    std::vector<std::vector<double>> initials;
    for (double amplitude : kAmplitudes) {
        std::vector<double> x0(system.size(), 0.0);
        x0[0] = amplitude;
        initials.push_back(std::move(x0));
    }
    sim::EnsembleOptions ensemble;
    ensemble.sim = options;
    ensemble.numThreads = 1;
    std::vector<SimResult> block =
        sim::simulateEnsemble(system, initials, 0.0, t1, ensemble);
    EXPECT_EQ(block.size(), kAmplitudes.size());
    for (std::size_t l = 0; l < block.size(); ++l)
        scores.push_back(score(block[l], kAmplitudes[l]));
    return scores;
}

class SimMethodTest : public ::testing::TestWithParam<Method>
{
};

TEST_P(SimMethodTest, ExponentialDecayMatchesAnalytic)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 2.0, 5.0);
    SimOptions options;
    options.method = GetParam();
    options.dt = 1e-3;
    SimResult result = sim::simulate(system, 0.0, 3.0, options);
    for (double t : {0.5, 1.0, 2.0, 3.0}) {
        EXPECT_NEAR(result.trajectory.sampleAt(0, t),
                    5.0 * std::exp(-2.0 * t), 1e-4)
            << "t=" << t;
    }
}

TEST_P(SimMethodTest, HarmonicOscillatorPreservesAmplitude)
{
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0 * std::numbers::pi);
    SimOptions options;
    options.method = GetParam();
    options.dt = 1e-4;
    options.relTol = 1e-9;
    options.absTol = 1e-12;
    SimResult result = sim::simulate(system, 0.0, 3.0, options);
    // x(t) = cos(2 pi t): period 1, amplitude 1.
    EXPECT_NEAR(result.trajectory.sampleAt(0, 1.0), 1.0, 1e-3);
    EXPECT_NEAR(result.trajectory.sampleAt(0, 1.5), -1.0, 1e-3);
    EXPECT_NEAR(result.trajectory.sampleAt(0, 2.25), 0.0, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Methods, SimMethodTest,
                         ::testing::Values(Method::Rk4, Method::Dopri5),
                         [](const auto &info) {
                             return info.param == Method::Rk4
                                        ? "Rk4"
                                        : "Dopri5";
                         });

TEST(SimTest, MethodsAgreeOnSmoothSystem)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    SimOptions rk4;
    rk4.method = Method::Rk4;
    rk4.dt = 1e-3;
    SimOptions dp;
    dp.method = Method::Dopri5;
    dp.relTol = 1e-9;
    dp.absTol = 1e-12;
    SimResult a = sim::simulate(system, 0.0, 2.0, rk4);
    SimResult b = sim::simulate(system, 0.0, 2.0, dp);
    for (double t : {0.25, 0.5, 1.0, 1.75}) {
        EXPECT_NEAR(a.trajectory.sampleAt(0, t),
                    b.trajectory.sampleAt(0, t), 1e-6);
    }
    // The adaptive method should use far fewer steps.
    EXPECT_LT(b.steps, a.steps / 5);
}

TEST(SimTest, Rk4GlobalErrorIsFourthOrderOnEveryLane)
{
    // x' = -2x from x0: the global error at t1 = 1 must fall by about
    // 2^4 = 16 each time dt halves, at width 1 and on every lane.
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 2.0, 1.0);
    auto finalError = [](const SimResult &result, double x0) {
        EXPECT_TRUE(result.ok());
        const std::size_t last = result.trajectory.size() - 1;
        const double t = result.trajectory.time(last);
        EXPECT_NEAR(t, 1.0, 1e-12);
        return std::fabs(result.trajectory.state(last)[0] -
                         x0 * std::exp(-2.0 * t));
    };
    std::vector<std::vector<double>> errors;
    for (double dt : {0.05, 0.025, 0.0125}) {
        SimOptions options;
        options.method = Method::Rk4;
        options.dt = dt;
        errors.push_back(scoreEveryLane(system, 1.0, options, finalError));
    }
    for (std::size_t k = 1; k < errors.size(); ++k) {
        for (std::size_t run = 0; run < errors[k].size(); ++run) {
            const double ratio = errors[k - 1][run] / errors[k][run];
            EXPECT_GE(ratio, 15.0) << "halving " << k << ", run " << run;
            EXPECT_LE(ratio, 18.0) << "halving " << k << ", run " << run;
        }
    }
}

TEST(SimTest, Dopri5TracksTheOscillatorAtTightToleranceOnEveryLane)
{
    // x'' = -4x from (x0, 0) is x0 cos 2t. At relTol 1e-10 every
    // recorded sample, at width 1 and on every lane, stays within 1e-9.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    SimOptions options;
    options.relTol = 1e-10;
    options.absTol = 1e-12;
    auto worstError = [](const SimResult &result, double x0) {
        EXPECT_TRUE(result.ok());
        EXPECT_GT(result.trajectory.size(), 10u);
        double worst = 0.0;
        for (std::size_t s = 0; s < result.trajectory.size(); ++s) {
            const double t = result.trajectory.time(s);
            worst = std::max(worst,
                             std::fabs(result.trajectory.state(s)[0] -
                                       x0 * std::cos(2.0 * t)));
        }
        return worst;
    };
    for (double worst : scoreEveryLane(system, 5.0, options, worstError))
        EXPECT_LE(worst, 1e-9);
}

/**
 * Every recorded slope is the FusedTape oracle's RHS at its sample,
 * bit for bit (compared as bit patterns, so a NaN slope recorded
 * just before a divergence matches too).
 */
void
expectSlopesAreTheRhs(const OdeSystem &system, const SimResult &result)
{
    ASSERT_TRUE(result.trajectory.hasDerivs());
    std::vector<double> scratch, rhs(system.size());
    for (std::size_t s = 0; s < result.trajectory.size(); ++s) {
        system.evalRhs(result.trajectory.state(s).data(),
                       result.trajectory.time(s), rhs.data(), scratch);
        std::span<const double> slope = result.trajectory.deriv(s);
        ASSERT_EQ(slope.size(), rhs.size());
        for (std::size_t i = 0; i < rhs.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(slope[i]),
                      std::bit_cast<std::uint64_t>(rhs[i]))
                << "sample " << s << " var " << i;
        }
    }
}

TEST(SimTest, RecordedSlopesAreTheRhsAtEachSample)
{
    // The 0.04 lane empties at t = 0.4 and retires; the others outlive
    // t1. Three lanes run at width 4, so the Dopri5 block compacts to
    // width 2 after the retirement and carries its slopes across.
    lang::LanguageRegistry registry;
    OdeSystem system = drainSystem(registry);
    const std::vector<std::vector<double>> initials{{1.0}, {0.04}, {0.81}};
    for (Method method : {Method::Rk4, Method::Dopri5}) {
        SimOptions options;
        options.method = method;
        options.dt = 1e-3;
        SimResult serial = sim::simulate(system, 0.0, 1.0, options);
        ASSERT_TRUE(serial.ok());
        expectSlopesAreTheRhs(system, serial);

        sim::EnsembleOptions ensemble;
        ensemble.sim = options;
        ensemble.numThreads = 1;
        std::vector<SimResult> block =
            sim::simulateEnsemble(system, initials, 0.0, 1.0, ensemble);
        ASSERT_EQ(block.size(), initials.size());
        EXPECT_TRUE(block[0].ok());
        EXPECT_FALSE(block[1].ok());
        EXPECT_TRUE(block[2].ok());
        for (const SimResult &result : block)
            expectSlopesAreTheRhs(system, result);
    }
}

TEST(SimTest, AdaptiveStepsConcentrateAtTransients)
{
    // A stiff-ish pulse-driven node: steps shrink during the pulse.
    lang::LanguageRegistry registry;
    registry.addProgram(R"(
        lang drv {
            ntyp(1,sum) X {};
            ntyp(0,sum) S {attr fn=lambd(a0)};
            etyp E {};
            prod(e:E,s:S->t:X) t <= s.fn(time) - var(t);
        }
    )");
    GraphBuilder builder(registry.language("drv"), 0);
    builder.node("s", "S");
    builder.node("x", "X");
    expr::Lambda pulse{{"a0"},
                       expr::Expr::call("pulse",
                                        {expr::Expr::var("a0"),
                                         expr::Expr::real(1.0),
                                         expr::Expr::real(0.1)})};
    builder.attr("s", "fn", expr::Value::function(pulse));
    builder.edge("e", "E", "s", "x");
    OdeSystem system =
        compiler::compile(builder.take(), registry.language("drv"));
    // maxDt must bound steps below the pulse width, otherwise the
    // stepper can clear the pulse without sampling it (see SimOptions).
    SimOptions options;
    options.maxDt = 0.05;
    SimResult result = sim::simulate(system, 0.0, 3.0, options);
    // The response must show the pulse: x rises after t=1 then decays.
    EXPECT_LT(result.trajectory.sampleAt(0, 0.9), 0.01);
    EXPECT_GT(result.trajectory.sampleAt(0, 1.1), 0.05);
    EXPECT_LT(result.trajectory.sampleAt(0, 3.0),
              result.trajectory.sampleAt(0, 1.11));
    // Step density: more accepted steps land inside [1.0, 1.2] than in
    // the equally-long quiet window [0.5, 0.7].
    int busy = 0, quiet = 0;
    for (double t : result.trajectory.times()) {
        busy += t >= 1.0 && t < 1.2;
        quiet += t >= 0.5 && t < 0.7;
    }
    EXPECT_GT(busy, quiet);
}

TEST(SimTest, RecordStrideLimitsSamples)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    SimOptions options;
    options.method = Method::Rk4;
    options.dt = 1e-3;
    options.recordDt = 0.1;
    SimResult result = sim::simulate(system, 0.0, 1.0, options);
    EXPECT_LE(result.trajectory.size(), 13u);
    EXPECT_GE(result.trajectory.size(), 10u);
}

TEST(SimTest, TrajectoryInterpolation)
{
    sim::Trajectory traj;
    traj.addSample(0.0, {0.0});
    traj.addSample(1.0, {10.0});
    traj.addSample(2.0, {30.0});
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, 1.5), 20.0);
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, -1.0), 0.0);  // clamped
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, 99.0), 30.0); // clamped
    auto grid = traj.resample(0, 0.0, 2.0, 5);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_DOUBLE_EQ(grid[2], 10.0);
    auto series = traj.series(0);
    EXPECT_EQ(series.size(), 3u);
}

TEST(SimTest, TrajectoryDerivInvariantSurvivesMixedSamples)
{
    // y = t^2 has slope 2t; with recorded derivatives sampleAt is
    // cubic-Hermite-exact for a quadratic.
    sim::Trajectory traj;
    std::vector<double> d0{0.0}, d1{2.0}, d2{4.0};
    traj.addSample(0.0, {0.0}, &d0);
    traj.addSample(1.0, {1.0}, &d1);
    EXPECT_TRUE(traj.hasDerivs());
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, 0.5), 0.25);

    // A deriv-less sample must drop Hermite data for the whole
    // trajectory: stale slopes on the earlier span would otherwise
    // keep masquerading as valid.
    traj.addSample(2.0, {4.0});
    EXPECT_FALSE(traj.hasDerivs());
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, 0.5), 0.5); // linear now

    // Later derivatives cannot resurrect a misaligned slope buffer.
    traj.addSample(3.0, {9.0}, &d2);
    EXPECT_FALSE(traj.hasDerivs());
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, 2.5), 6.5); // still linear
}

TEST(SimTest, TrajectoryLeadingDerivlessSampleStaysLinear)
{
    sim::Trajectory traj;
    std::vector<double> d1{2.0};
    traj.addSample(0.0, {0.0});
    traj.addSample(1.0, {1.0}, &d1);
    EXPECT_FALSE(traj.hasDerivs());
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, 0.5), 0.5);
}

TEST(SimTest, TrajectoryReserveBeforeAndAfterSamples)
{
    // reserve() may land before the first sample (dimension supplied
    // by the caller) or between samples; neither disturbs contents.
    sim::Trajectory traj;
    traj.reserve(64, 2);
    std::vector<double> d{1.0, -1.0};
    traj.addSample(0.0, {1.0, 2.0}, &d);
    traj.reserve(128, 2);
    traj.addSample(1.0, {3.0, 4.0}, &d);
    ASSERT_EQ(traj.size(), 2u);
    EXPECT_TRUE(traj.hasDerivs());
    EXPECT_DOUBLE_EQ(traj.state(1)[1], 4.0);
}

TEST(SimTest, TrajectoryReserveAfterDerivDropStaysDropped)
{
    // Once the slope buffer is dropped, a later reserve() must not
    // resurrect it (a fresh partially-aligned buffer would be worse
    // than none).
    sim::Trajectory traj;
    std::vector<double> d{2.0};
    traj.addSample(0.0, {0.0}, &d);
    traj.addSample(1.0, {2.0});
    ASSERT_FALSE(traj.hasDerivs());
    traj.reserve(32, 1);
    traj.addSample(2.0, {4.0}, &d);
    EXPECT_FALSE(traj.hasDerivs());
    EXPECT_DOUBLE_EQ(traj.sampleAt(0, 0.5), 1.0); // linear
}

TEST(SimTest, TrajectoryEmptySampleAtThrows)
{
    sim::Trajectory traj;
    EXPECT_THROW(traj.sampleAt(0, 0.0), SimError);
    EXPECT_FALSE(traj.hasDerivs());
    EXPECT_EQ(traj.stateDim(), 0u);
}

TEST(SimTest, TrajectoryFlatStorageAccessors)
{
    sim::Trajectory traj;
    traj.reserve(3, 2);
    traj.addSample(0.0, {1.0, 10.0});
    traj.addSample(1.0, {2.0, 20.0});
    traj.addSample(2.0, {3.0, 30.0});
    EXPECT_EQ(traj.stateDim(), 2u);
    ASSERT_EQ(traj.size(), 3u);
    auto middle = traj.state(1);
    ASSERT_EQ(middle.size(), 2u);
    EXPECT_DOUBLE_EQ(middle[0], 2.0);
    EXPECT_DOUBLE_EQ(middle[1], 20.0);
    auto series = traj.series(1);
    ASSERT_EQ(series.size(), 3u);
    EXPECT_DOUBLE_EQ(series[2], 30.0);
}

TEST(SimTest, SteadyStateDetection)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 5.0, 1.0);
    SimResult result =
        sim::simulateToSteadyState(system, 0.0, 10.0, 1e-6);
    EXPECT_TRUE(result.reachedSteadyState);
    // An undamped oscillator never settles.
    OdeSystem osc = oscillatorSystem(registry, 2.0);
    SimResult never = sim::simulateToSteadyState(osc, 0.0, 5.0, 1e-6);
    EXPECT_FALSE(never.reachedSteadyState);
}

/** dx/dt = +x^3: finite-time blowup at t = 1/(2 x0^2). */
OdeSystem
boomSystem(lang::LanguageRegistry &registry, double x0)
{
    if (!registry.findLanguage("boom")) {
        registry.addProgram(R"(
            lang boom {
                ntyp(1,sum) X {};
                etyp E {};
                prod(e:E,s:X->s:X) s <= var(s)*var(s)*var(s);
            }
        )");
    }
    GraphBuilder builder(registry.language("boom"), 0);
    builder.node("x", "X");
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, x0);
    return compiler::compile(builder.take(),
                             registry.language("boom"));
}

TEST(SimTest, DivergenceReportsStructuredFailure)
{
    // From x0=2 the explosion lands at t = 0.125; the run must stop
    // right there with a structured report instead of throwing or
    // integrating NaNs onward.
    lang::LanguageRegistry registry;
    OdeSystem system = boomSystem(registry, 2.0);
    SimOptions options;
    options.method = Method::Rk4;
    options.dt = 1e-3;
    SimResult result = sim::simulate(system, 0.0, 1.0, options);
    EXPECT_FALSE(result.ok());
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_EQ(result.failure->reason, sim::AbortReason::Diverged);
    EXPECT_EQ(result.failure->stateIndex, 0);
    EXPECT_EQ(result.failure->step, result.steps);
    EXPECT_GT(result.steps, 0u);
    // Aborted near the blowup, far short of t1.
    EXPECT_LT(result.failure->time, 0.5);
    EXPECT_NE(result.failure->message.find("diverged"),
              std::string::npos);
    // The trajectory keeps the pre-failure samples, all finite.
    ASSERT_GT(result.trajectory.size(), 0u);
    for (std::size_t s = 0; s < result.trajectory.size(); ++s)
        EXPECT_TRUE(std::isfinite(result.trajectory.state(s)[0]));
}

TEST(SimTest, DivergenceAbortsAdaptiveRunEarly)
{
    // x' = -sqrt(x) from x0=1 reaches 0 at t=2 and then dips negative,
    // so the RHS (and with it Dopri5's error estimate) goes NaN while
    // the state is still finite. That must abort structurally instead
    // of rejecting NaN steps toward the budget or step collapse.
    lang::LanguageRegistry registry;
    OdeSystem system = drainSystem(registry);
    SimOptions options;
    options.maxSteps = 100'000;
    SimResult result = sim::simulate(system, 0.0, 3.0, options);
    EXPECT_FALSE(result.ok());
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_EQ(result.failure->reason, sim::AbortReason::Diverged);
    // Aborted around the t=2 zero crossing, well before t1.
    EXPECT_GT(result.failure->time, 1.0);
    EXPECT_LT(result.failure->time, 3.0);
    // Detection is prompt: nowhere near the step budget.
    EXPECT_LT(result.steps + result.rejectedSteps, 10'000u);
}

TEST(SimTest, NonfiniteInitialStateFailsAtStepZero)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    std::vector<double> initial{
        std::numeric_limits<double>::quiet_NaN()};
    SimResult result =
        sim::simulate(system, initial, 0.0, 1.0, SimOptions{});
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_EQ(result.failure->reason, sim::AbortReason::Diverged);
    EXPECT_EQ(result.failure->step, 0u);
    EXPECT_EQ(result.failure->stateIndex, 0);
    EXPECT_EQ(result.trajectory.size(), 0u);
}

TEST(SimTest, BadTimeRangeRejected)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    EXPECT_THROW(sim::simulate(system, 1.0, 1.0, SimOptions{}),
                 SimError);
    EXPECT_THROW(sim::simulate(system, 2.0, 1.0, SimOptions{}),
                 SimError);
}

TEST(SimTest, StepBudgetGuards)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    SimOptions options;
    options.method = Method::Rk4;
    options.dt = 1e-9; // would need 1e9 steps
    options.maxSteps = 1000;
    // Budget exhaustion is an instance-level outcome, not an error:
    // the run stops with a structured BudgetExhausted failure and
    // keeps everything integrated up to the stop.
    SimResult result = sim::simulate(system, 0.0, 1.0, options);
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_EQ(result.failure->reason, sim::AbortReason::BudgetExhausted);
    EXPECT_EQ(result.steps, 1000u);
    EXPECT_LT(result.failure->time, 1.0);
    EXPECT_FALSE(result.trajectory.times().empty());
}

TEST(SimTest, FinalTimeRecorded)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    SimOptions options;
    options.recordDt = 0.3;
    SimResult result = sim::simulate(system, 0.0, 1.0, options);
    EXPECT_NEAR(result.trajectory.times().back(), 1.0, 1e-9);
}

} // namespace
