/**
 * @file
 * Tests for the lane-synchronized adaptive Dopri5 batch driver ("step
 * voting"): tolerance-level agreement with scalar Dopri5 on random
 * TLN/OBC/CNN ensembles, bit identity across thread counts, stiff-lane
 * voting, per-lane divergence retirement with block compaction down
 * to width 1 (storing every state or a saved node), ablation parity,
 * and degenerate ranges.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "apps/puf.h"
#include "compiler/compiler.h"
#include "dg/graph.h"
#include "lang/registry.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "sim/sim.h"
#include "support/error.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace {

using namespace ark;
using compiler::OdeSystem;
using lang::GraphBuilder;
using sim::EnsembleOptions;
using sim::SimResult;

/** x'' = -w^2 x built through the full Ark pipeline. */
OdeSystem
oscillatorSystem(lang::LanguageRegistry &registry, double w)
{
    if (!registry.findLanguage("osc5")) {
        registry.addProgram(R"(
            lang osc5 {
                ntyp(2,sum) X {attr w2=real[0,100000],
                               init(0) real[-10,10],
                               init(1) real[-10,10]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= -s.w2*var(s);
            }
        )");
    }
    GraphBuilder builder(registry.language("osc5"), 0);
    builder.node("x", "X");
    builder.attr("x", "w2", w * w);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 1.0);
    builder.init("x", 1, 0.0);
    return compiler::compile(builder.take(), registry.language("osc5"));
}

/**
 * dx/dt = -sqrt(x): from x0 > 0 the state hits zero at t = 2 sqrt(x0)
 * and dips negative, so the RHS (and with it the Dopri5 error
 * estimate) goes NaN — the adaptive divergence-abort path.
 */
OdeSystem
drainSystem(lang::LanguageRegistry &registry)
{
    if (!registry.findLanguage("drain5")) {
        registry.addProgram(R"(
            lang drain5 {
                ntyp(1,sum) X {};
                etyp E {};
                prod(e:E,s:X->s:X) s <= 0-sqrt(var(s));
            }
        )");
    }
    GraphBuilder builder(registry.language("drain5"), 0);
    builder.node("x", "X");
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 1.0);
    return compiler::compile(builder.take(),
                             registry.language("drain5"));
}

void
expectIdenticalResults(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.rejectedSteps, b.rejectedSteps);
    EXPECT_EQ(a.ok(), b.ok());
    for (std::size_t s = 0; s < a.trajectory.size(); ++s) {
        EXPECT_EQ(a.trajectory.time(s), b.trajectory.time(s));
        auto stateA = a.trajectory.state(s);
        auto stateB = b.trajectory.state(s);
        ASSERT_EQ(stateA.size(), stateB.size());
        for (std::size_t i = 0; i < stateA.size(); ++i)
            EXPECT_EQ(stateA[i], stateB[i]) << "sample " << s;
    }
}

/**
 * Batched-vs-scalar agreement on one compiled system: N random
 * initial states integrated as a voting batch, as serial scalar
 * Dopri5 runs, and as a tight-tolerance reference. The voted grid
 * takes the minimum over per-lane controller steps, so every lane is
 * integrated at least as accurately as its own scalar run — the
 * batched solution must sit within `refFactor` x the configured
 * tolerance of the reference, and within the two paths' combined
 * drift allowance of the scalar run. Smooth systems (OBC, CNN) hold
 * refFactor = 10; pulse-driven TLN lines take a looser multiple
 * because a step straddling a pulse edge contributes an error the
 * smooth-order local control cannot see (cf. the SimOptions::maxDt
 * doc) — an artifact both adaptive paths share, with the batch
 * empirically the closer of the two to the reference.
 */
void
expectVotingAgreement(const OdeSystem &system, support::Rng &rng,
                      double t1, double stateScale,
                      double refFactor = 10.0)
{
    const std::size_t n = system.size();
    std::vector<std::vector<double>> initials;
    for (int inst = 0; inst < 6; ++inst) {
        std::vector<double> x0(n);
        for (std::size_t i = 0; i < n; ++i)
            x0[i] = rng.uniform(-stateScale, stateScale);
        initials.push_back(std::move(x0));
    }

    EnsembleOptions lane; // Dopri5 default
    lane.numThreads = 1;
    sim::SimOptions tight = lane.sim;
    tight.relTol = 1e-11;
    tight.absTol = 1e-14;
    std::vector<SimResult> batch =
        sim::simulateEnsemble(system, initials, 0.0, t1, lane);
    ASSERT_EQ(batch.size(), initials.size());
    for (std::size_t inst = 0; inst < initials.size(); ++inst) {
        SimResult serial =
            sim::simulate(system, initials[inst], 0.0, t1, lane.sim);
        SimResult reference =
            sim::simulate(system, initials[inst], 0.0, t1, tight);
        ASSERT_TRUE(batch[inst].ok());
        ASSERT_TRUE(serial.ok());
        ASSERT_TRUE(reference.ok());
        // Compare at the batch's own recorded sample times: the
        // batched value is then an exact solver state (no Hermite
        // interpolation on the tested side; the tight reference's
        // interpolation error is negligible at its step density).
        const std::size_t samples = batch[inst].trajectory.size();
        ASSERT_GT(samples, 1u);
        for (int pick = 0; pick <= 8; ++pick) {
            std::size_t s = samples - 1 -
                            (samples - 1) * static_cast<std::size_t>(pick) / 8;
            double t = batch[inst].trajectory.time(s);
            auto state = batch[inst].trajectory.state(s);
            for (std::size_t i = 0; i < n; ++i) {
                double a = state[i];
                double b = serial.trajectory.sampleAt(
                    static_cast<int>(i), t);
                double r = reference.trajectory.sampleAt(
                    static_cast<int>(i), t);
                double scale =
                    lane.sim.absTol +
                    lane.sim.relTol *
                        std::max({std::fabs(a), std::fabs(b),
                                  stateScale});
                // Batched global error stays a small multiple of the
                // configured tolerance.
                EXPECT_NEAR(a, r, refFactor * scale)
                    << "batch vs reference, instance " << inst
                    << " var " << i << " t=" << t;
                // Batch-vs-scalar gap is bounded by the batch's own
                // allowance plus however far the scalar run itself
                // drifted from truth (its global error is not bounded
                // by any fixed multiple of the local tolerance).
                EXPECT_NEAR(a, b, refFactor * scale + std::fabs(b - r))
                    << "batch vs scalar, instance " << inst << " var "
                    << i << " t=" << t;
            }
        }
    }
}

class VotingEquivalence : public ::testing::TestWithParam<int>
{
  protected:
    static void SetUpTestSuite()
    {
        registry_ = new lang::LanguageRegistry(
            paradigms::makeStandardRegistry());
    }
    static void TearDownTestSuite()
    {
        delete registry_;
        registry_ = nullptr;
    }
    static lang::LanguageRegistry *registry_;
};

lang::LanguageRegistry *VotingEquivalence::registry_ = nullptr;

TEST_P(VotingEquivalence, RandomTlnEnsemble)
{
    support::Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::tln::LineSpec spec;
    spec.sections = static_cast<int>(rng.uniformInt(3, 16));
    spec.inductance = rng.uniform(0.5e-9, 2e-9);
    spec.capacitance = rng.uniform(0.5e-9, 2e-9);
    const lang::Language &tln = registry_->language("tln");
    OdeSystem system =
        compiler::compile(paradigms::tln::buildLine(tln, spec), tln);
    expectVotingAgreement(system, rng, 2e-8, 1.0, 25.0);
}

TEST_P(VotingEquivalence, RandomObcEnsemble)
{
    support::Rng rng(5000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::obc::MaxcutInstance instance;
    instance.numVertices = static_cast<int>(rng.uniformInt(3, 6));
    for (int a = 0; a < instance.numVertices; ++a)
        for (int b = a + 1; b < instance.numVertices; ++b)
            if (rng.bernoulli(0.6))
                instance.edges.emplace_back(a, b);
    paradigms::obc::MaxcutSpec spec;
    for (int v = 0; v < instance.numVertices; ++v)
        spec.initPhases.push_back(
            rng.uniform(0.0, 2.0 * std::numbers::pi));
    const lang::Language &obc = registry_->language("obc");
    OdeSystem system = compiler::compile(
        paradigms::obc::buildMaxcut(obc, instance, spec), obc);
    expectVotingAgreement(system, rng, 1e-8, 2.0);
}

TEST_P(VotingEquivalence, RandomCnnEnsemble)
{
    support::Rng rng(6000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::cnn::CnnSpec spec;
    spec.width = static_cast<int>(rng.uniformInt(3, 5));
    spec.height = static_cast<int>(rng.uniformInt(3, 5));
    std::vector<double> input;
    for (int i = 0; i < spec.width * spec.height; ++i)
        input.push_back(rng.bernoulli(0.5) ? 1.0 : -1.0);
    const lang::Language &cnn = registry_->language("cnn");
    OdeSystem system = compiler::compile(
        paradigms::cnn::buildCnn(cnn, spec, input), cnn);
    expectVotingAgreement(system, rng, 1e-8, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VotingEquivalence,
                         ::testing::Range(0, 4));

TEST(Dopri5BatchTest, BitIdenticalAcrossThreadCounts)
{
    // The voting sequence depends only on the block assignment, never
    // on scheduling: every thread count must produce byte-identical
    // batched results. 11 instances exercise a full 8-lane block plus
    // a padded 3-lane tail.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 3.0);
    std::vector<std::vector<double>> initials;
    for (int i = 0; i < 11; ++i)
        initials.push_back({0.1 * (i + 1), -0.03 * i});

    EnsembleOptions options; // Dopri5 default, laneBatching on
    options.numThreads = 1;
    std::vector<SimResult> reference =
        sim::simulateEnsemble(system, initials, 0.0, 2.0, options);
    for (unsigned threads : {2u, 4u, 8u}) {
        options.numThreads = threads;
        std::vector<SimResult> batch =
            sim::simulateEnsemble(system, initials, 0.0, 2.0, options);
        ASSERT_EQ(batch.size(), reference.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            expectIdenticalResults(batch[i], reference[i]);
    }
}

TEST(Dopri5BatchTest, SingletonAdaptiveStaysScalar)
{
    // A one-instance batch has no lanes to vote with: it runs the
    // one-lane block serial simulate() runs and matches it bit for bit.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    EnsembleOptions options;
    std::vector<SimResult> batch = sim::simulateEnsemble(
        system, {{1.0, 0.0}}, 0.0, 1.0, options);
    SimResult serial =
        sim::simulate(system, {1.0, 0.0}, 0.0, 1.0, options.sim);
    ASSERT_EQ(batch.size(), 1u);
    expectIdenticalResults(batch[0], serial);
}

TEST(Dopri5BatchTest, StiffLaneSetsTheSharedPace)
{
    // Four oscillators sharing one structure, one of them 100x
    // stiffer: min-over-lanes voting must drive the whole block at
    // the stiff lane's step size (the relaxed lanes take far more
    // steps than they would alone), while every lane still meets its
    // own error test.
    // w = 1 would fold the `-w2 * q` multiply away entirely and land
    // the instance in a different structure class; every w here keeps
    // the multiply so all four share one instruction stream.
    lang::LanguageRegistry registry;
    std::vector<OdeSystem> systems;
    for (double w : {1.1, 1.4, 1.8, 200.0})
        systems.push_back(oscillatorSystem(registry, w));
    std::vector<const OdeSystem *> pointers;
    for (const OdeSystem &system : systems)
        pointers.push_back(&system);

    EnsembleOptions options;
    options.numThreads = 1;
    std::vector<SimResult> batch =
        sim::simulateEnsemble(pointers, 0.0, 1.0, options);
    ASSERT_EQ(batch.size(), 4u);
    SimResult serialSlow = sim::simulate(
        systems[0], systems[0].initialState(), 0.0, 1.0, options.sim);
    SimResult serialStiff = sim::simulate(
        systems[3], systems[3].initialState(), 0.0, 1.0, options.sim);
    for (const SimResult &result : batch)
        ASSERT_TRUE(result.ok());
    // All lanes share the voted grid...
    EXPECT_EQ(batch[0].steps, batch[3].steps);
    // ...which is much denser than the relaxed lane needs on its own
    // and no coarser than the stiff lane's serial grid (up to the
    // controller's reaction slack).
    EXPECT_GT(batch[0].steps, 4 * serialSlow.steps);
    EXPECT_GE(4 * batch[3].steps, serialStiff.steps);
    // And the relaxed lane is still accurate.
    EXPECT_NEAR(batch[0].trajectory.sampleAt(0, 1.0),
                serialSlow.trajectory.sampleAt(0, 1.0), 1e-4);
}

/** x'' = -w^2 x^3: amplitude-dependent stiffness, so the stiffest
 *  lane keeps failing proposed steps (charged to it alone) while its
 *  block-mates pass — the per-lane step-budget accounting fixture. */
OdeSystem
duffingSystem(lang::LanguageRegistry &registry, double w)
{
    if (!registry.findLanguage("duff5")) {
        registry.addProgram(R"(
            lang duff5 {
                ntyp(2,sum) X {attr w2=real[0,100000],
                               init(0) real[-10,10],
                               init(1) real[-10,10]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= -s.w2*var(s)*var(s)*var(s);
            }
        )");
    }
    GraphBuilder builder(registry.language("duff5"), 0);
    builder.node("x", "X");
    builder.attr("x", "w2", w * w);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 1.0);
    builder.init("x", 1, 0.0);
    return compiler::compile(builder.take(), registry.language("duff5"));
}

TEST(Dopri5BatchTest, BudgetExhaustionRetiresOnlyTheExhaustedLane)
{
    // Regression: an exhausted step budget on the voted lane path
    // used to throw SimError for the whole block. It must instead be
    // charged to the exhausted lane (steps + that lane's rejections)
    // as a structured BudgetExhausted failure while the healthy
    // lane-mates keep integrating to t1. One 100x-stiffer Duffing
    // lane accrues all the rejections in the block (~20 at these
    // tolerances; its mates none), so with the budget set between the
    // shared accepted-step count and the stiff lane's charged total,
    // only the stiff lane trips.
    lang::LanguageRegistry registry;
    std::vector<OdeSystem> systems;
    for (double w : {1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 200.0})
        systems.push_back(duffingSystem(registry, w));
    std::vector<const OdeSystem *> pointers;
    for (const OdeSystem &system : systems)
        pointers.push_back(&system);

    EnsembleOptions options;
    options.numThreads = 1;
    options.sim.maxSteps = 1000;
    std::vector<SimResult> batch =
        sim::simulateEnsemble(pointers, 0.0, 1.0, options);
    ASSERT_EQ(batch.size(), 8u);

    for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
        ASSERT_TRUE(batch[i].ok()) << "instance " << i;
        EXPECT_NEAR(batch[i].trajectory.times().back(), 1.0, 1e-9);
    }
    const SimResult &stiff = batch.back();
    ASSERT_FALSE(stiff.ok());
    EXPECT_EQ(stiff.failure->reason, sim::AbortReason::BudgetExhausted);
    // The lane is charged its shared accepted steps plus its own
    // rejections, exactly like scalar simulate().
    EXPECT_GE(stiff.steps + stiff.rejectedSteps, options.sim.maxSteps);
    EXPECT_GT(stiff.rejectedSteps, 0u);
    EXPECT_LT(stiff.failure->time, 1.0);
}

TEST(Dopri5BatchTest, DivergingLanesRetireThroughCompactionAndSpill)
{
    // Eight instances of one drain system with staggered zero
    // crossings (t* = 2 sqrt(x0)): lanes retire as their error
    // estimates go NaN (divergence masking), the block compacts as
    // survivors dwindle, and the last lane finishes at width 1.
    lang::LanguageRegistry registry;
    OdeSystem system = drainSystem(registry);
    const std::vector<double> x0s{0.0025, 0.01, 0.0225, 0.04, 0.0625,
                                  0.09,   0.1225, 9.0};
    std::vector<std::vector<double>> initials;
    for (double x0 : x0s)
        initials.push_back({x0});

    EnsembleOptions options;
    options.numThreads = 1;
    options.sim.maxSteps = 200'000;
    std::vector<SimResult> batch =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, options);
    ASSERT_EQ(batch.size(), x0s.size());

    for (std::size_t i = 0; i + 1 < x0s.size(); ++i) {
        ASSERT_FALSE(batch[i].ok()) << "instance " << i;
        EXPECT_EQ(batch[i].failure->reason, sim::AbortReason::Diverged);
        EXPECT_LE(batch[i].failure->time, 1.0);
        // The trajectory keeps only pre-failure (finite) samples.
        for (std::size_t s = 0; s < batch[i].trajectory.size(); ++s)
            EXPECT_TRUE(
                std::isfinite(batch[i].trajectory.state(s)[0]));
    }
    const SimResult &survivor = batch.back();
    ASSERT_TRUE(survivor.ok());
    // x(t) = (sqrt(x0) - t/2)^2: the survivor stays well positive.
    EXPECT_NEAR(survivor.trajectory.sampleAt(0, 1.0), 6.25, 1e-3);
}

TEST(Dopri5BatchTest, SavedDivergingLanesRetireThroughCompactionAndSpill)
{
    // The run above with a second drain node, y, that never empties,
    // saved alone. Saving changes no step and no failure check: every
    // lane retires exactly as in the full run, still blaming x, keeps
    // its saved samples from before the failure, and the survivor
    // keeps its column through every compaction down to width 1.
    lang::LanguageRegistry registry;
    drainSystem(registry); // registers drain5
    GraphBuilder builder(registry.language("drain5"), 0);
    for (const char *node : {"x", "y"}) {
        builder.node(node, "X");
        builder.edge(std::string(node) + "_self", "E", node, node);
        builder.init(node, 0, 1.0);
    }
    OdeSystem system =
        compiler::compile(builder.take(), registry.language("drain5"));
    const auto x = static_cast<std::size_t>(system.stateIndex("x", 0));
    const auto y = static_cast<std::size_t>(system.stateIndex("y", 0));
    const std::vector<double> x0s{0.0025, 0.01, 0.0225, 0.04, 0.0625,
                                  0.09,   0.1225, 9.0};
    std::vector<std::vector<double>> initials;
    for (double x0 : x0s) {
        std::vector<double> init(2);
        init[x] = x0;
        init[y] = 9.0;
        initials.push_back(std::move(init));
    }

    EnsembleOptions options;
    options.numThreads = 1;
    options.sim.maxSteps = 200'000;
    std::vector<SimResult> full =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, options);
    options.sim.save = {"y"};
    std::vector<SimResult> saved =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, options);
    ASSERT_EQ(full.size(), x0s.size());
    ASSERT_EQ(saved.size(), x0s.size());

    for (std::size_t i = 0; i < x0s.size(); ++i) {
        const bool survivor = i + 1 == x0s.size();
        ASSERT_EQ(full[i].ok(), survivor) << "instance " << i;
        ASSERT_EQ(saved[i].ok(), survivor) << "instance " << i;
        EXPECT_EQ(saved[i].steps, full[i].steps);
        EXPECT_EQ(saved[i].rejectedSteps, full[i].rejectedSteps);
        if (!survivor) {
            EXPECT_EQ(saved[i].failure->reason, sim::AbortReason::Diverged);
            EXPECT_EQ(saved[i].failure->stateIndex,
                      static_cast<int>(x));
            EXPECT_EQ(saved[i].failure->stateIndex,
                      full[i].failure->stateIndex);
            EXPECT_EQ(saved[i].failure->step, full[i].failure->step);
            EXPECT_EQ(saved[i].failure->time, full[i].failure->time);
        }
        const sim::Trajectory &a = saved[i].trajectory;
        const sim::Trajectory &b = full[i].trajectory;
        ASSERT_EQ(a.columns(), std::vector<std::size_t>{y});
        ASSERT_GT(a.size(), 1u) << "instance " << i;
        ASSERT_EQ(a.times(), b.times()) << "instance " << i;
        ASSERT_TRUE(a.hasDerivs());
        for (std::size_t s = 0; s < a.size(); ++s) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.state(s)[0]),
                      std::bit_cast<std::uint64_t>(b.state(s)[y]));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.deriv(s)[0]),
                      std::bit_cast<std::uint64_t>(b.deriv(s)[y]));
        }
        EXPECT_THROW(a.series(static_cast<int>(x)), support::SimError);
    }
    // y(t) = (3 - t/2)^2: the survivor reaches t = 1 on track.
    EXPECT_NEAR(saved.back().trajectory.sampleAt(static_cast<int>(y), 1.0),
                6.25, 1e-3);
}

TEST(Dopri5BatchTest, SurvivorsAlwaysRecordTheFinalSample)
{
    // Lane retirement near t1 must never eat the forced final record:
    // whenever a retirement triggers block compaction on the very
    // step that reaches t1, the survivors still get their t1 sample.
    // Sweep t1 across the divergers' blowup window with a record gate
    // so coarse that a skipped forced record is unmissable.
    // dx/dt = -sqrt(tc - time) goes NaN the moment a stage samples
    // past t = tc. With the diverger's deadline a sliver below t1,
    // only the final iteration's top stages cross it, so its lane
    // retires deterministically on the very step that reaches t1 —
    // and three lanes (width 4) make that retirement satisfy the
    // compaction threshold immediately. recordDt = 0.6 t1 gates the
    // final accepted step off, so only the forced end-of-run record
    // can produce the survivors' t1 sample.
    lang::LanguageRegistry registry;
    registry.addProgram(R"(
        lang deadline5 {
            ntyp(1,sum) X {attr tc=real[0,100]};
            etyp E {};
            prod(e:E,s:X->s:X) s <= 0-sqrt(s.tc-time);
        }
    )");
    auto deadlineSystem = [&](double tc) {
        GraphBuilder builder(registry.language("deadline5"), 0);
        builder.node("x", "X");
        builder.attr("x", "tc", tc);
        builder.edge("self", "E", "x", "x");
        builder.init("x", 0, 5.0);
        return compiler::compile(builder.take(),
                                 registry.language("deadline5"));
    };
    const double t1 = 1.0;
    std::vector<OdeSystem> systems;
    systems.push_back(deadlineSystem(t1 - 1e-9)); // retires on t1 step
    systems.push_back(deadlineSystem(100.0));
    systems.push_back(deadlineSystem(50.0));
    std::vector<const OdeSystem *> pointers;
    for (const OdeSystem &system : systems)
        pointers.push_back(&system);

    EnsembleOptions options;
    options.numThreads = 1;
    options.sim.recordDt = 0.6 * t1;
    std::vector<SimResult> batch =
        sim::simulateEnsemble(pointers, 0.0, t1, options);
    ASSERT_EQ(batch.size(), 3u);
    ASSERT_FALSE(batch[0].ok());
    EXPECT_EQ(batch[0].failure->reason, sim::AbortReason::Diverged);
    // The deadline lane held on until the step that lands t1.
    EXPECT_GT(batch[0].failure->time, 0.8 * t1);
    for (std::size_t i = 1; i < batch.size(); ++i) {
        ASSERT_TRUE(batch[i].ok()) << "instance " << i;
        ASSERT_GT(batch[i].trajectory.size(), 0u);
        double last = batch[i].trajectory.times().back();
        EXPECT_NEAR(last, t1, 1e-9 * t1) << "instance " << i;
    }
}

TEST(Dopri5BatchTest, AblationMatchesSerialBitForBit)
{
    // laneBatching=false must reproduce serial simulate()'s one-lane
    // adaptive runs exactly — the differential-testing anchor for the
    // voting driver.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    std::vector<std::vector<double>> initials;
    for (int i = 0; i < 5; ++i)
        initials.push_back({0.2 * (i + 1), 0.1});
    EnsembleOptions options;
    options.laneBatching = false;
    for (unsigned threads : {1u, 4u}) {
        options.numThreads = threads;
        std::vector<SimResult> batch =
            sim::simulateEnsemble(system, initials, 0.0, 1.5, options);
        for (std::size_t i = 0; i < initials.size(); ++i) {
            SimResult serial = sim::simulate(system, initials[i], 0.0,
                                             1.5, options.sim);
            expectIdenticalResults(batch[i], serial);
        }
    }
}

TEST(Dopri5BatchTest, DegenerateRangeMatchesSerialBitForBit)
{
    // t1 one ulp past t0 lies inside the loop epsilon: no step is
    // taken, and a lane block records what serial simulate() records —
    // the initial sample only. The forced final record lands on the
    // same time and state, so it is not recorded again.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    const std::vector<std::vector<double>> initials{{1.0, 0.0},
                                                    {0.5, 0.2}};
    const double t0 = 0.5;
    const double t1 = std::nextafter(t0, 1.0);
    for (sim::Method method : {sim::Method::Rk4, sim::Method::Dopri5}) {
        EnsembleOptions options;
        options.sim.method = method;
        options.numThreads = 1;
        std::vector<SimResult> batch =
            sim::simulateEnsemble(system, initials, t0, t1, options);
        ASSERT_EQ(batch.size(), initials.size());
        for (std::size_t i = 0; i < initials.size(); ++i) {
            SimResult serial =
                sim::simulate(system, initials[i], t0, t1, options.sim);
            EXPECT_EQ(serial.trajectory.size(), 1u);
            expectIdenticalResults(batch[i], serial);
        }
    }
}

TEST(Dopri5BatchTest, PufChipsVoteAndStayMoreAccurateThanScalar)
{
    // A real heterogeneous-parameter battery (shared circuit
    // structure, per-chip mismatch constants): the chips must merge
    // into one voting block — every member then shares the voted
    // accepted-step count — and each batched trajectory must sit no
    // farther from a tight reference than a small multiple of the
    // tolerance or the scalar adaptive path's own drift.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language &gmcTln = registry.language("gmc-tln");
    apps::PufDesign design;
    design.mainSections = 8;
    design.numBranches = 2;
    design.stubSections = 2;
    design.simMethod = sim::Method::Dopri5;
    apps::TlnPuf puf(gmcTln, design);

    std::vector<OdeSystem> chips;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        dg::Graph graph = puf.buildGraph(2, seed);
        validator::validateOrThrow(graph, gmcTln);
        chips.push_back(compiler::compile(graph, gmcTln));
    }
    std::vector<const OdeSystem *> pointers;
    for (const OdeSystem &chip : chips)
        pointers.push_back(&chip);

    EnsembleOptions lane;
    lane.numThreads = 1;
    sim::SimOptions tight = lane.sim;
    tight.relTol = 1e-11;
    tight.absTol = 1e-14;
    std::vector<SimResult> batch = sim::simulateEnsemble(
        pointers, 0.0, design.windowEnd, lane);
    ASSERT_EQ(batch.size(), chips.size());
    for (const SimResult &result : batch) {
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.steps, batch.front().steps); // one voted grid
    }
    for (std::size_t c = 0; c < chips.size(); ++c) {
        SimResult serial = sim::simulate(
            chips[c], chips[c].initialState(), 0.0, design.windowEnd,
            lane.sim);
        SimResult reference = sim::simulate(
            chips[c], chips[c].initialState(), 0.0, design.windowEnd,
            tight);
        const auto &traj = batch[c].trajectory;
        double worstBatch = 0.0, worstScalar = 0.0;
        for (int pick = 0; pick <= 8; ++pick) {
            std::size_t s = (traj.size() - 1) *
                            static_cast<std::size_t>(pick) / 8;
            double t = traj.time(s);
            auto state = traj.state(s);
            for (std::size_t i = 0; i < state.size(); ++i) {
                double r = reference.trajectory.sampleAt(
                    static_cast<int>(i), t);
                worstBatch = std::max(worstBatch,
                                      std::fabs(state[i] - r));
                worstScalar = std::max(
                    worstScalar,
                    std::fabs(serial.trajectory.sampleAt(
                                  static_cast<int>(i), t) -
                              r));
            }
        }
        double scale = lane.sim.absTol + lane.sim.relTol * 1.0;
        EXPECT_LE(worstBatch, std::max(25.0 * scale, 2.0 * worstScalar))
            << "chip " << c << " batch drift " << worstBatch
            << " scalar drift " << worstScalar;
    }
}

TEST(Dopri5BatchTest, KuramotoRk4KeepsLaneScalarParity)
{
    // A Kuramoto program, a sum of sin couplings, through the lane
    // RK4 driver, one-lane blocks and serial simulate(): every lane
    // must reproduce the scalar run bit for bit.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    paradigms::obc::MaxcutInstance instance;
    instance.numVertices = 5;
    for (int a = 0; a < instance.numVertices; ++a)
        for (int b = a + 1; b < instance.numVertices; ++b)
            instance.edges.emplace_back(a, b);
    paradigms::obc::MaxcutSpec spec;
    for (int v = 0; v < instance.numVertices; ++v)
        spec.initPhases.push_back(0.45 * v);
    const lang::Language &obc = registry.language("obc");
    OdeSystem system = compiler::compile(
        paradigms::obc::buildMaxcut(obc, instance, spec), obc);

    std::vector<std::vector<double>> initials;
    support::Rng rng(11);
    for (int inst = 0; inst < 4; ++inst) {
        std::vector<double> x0;
        for (std::size_t i = 0; i < system.size(); ++i)
            x0.push_back(rng.uniform(0.0, 2.0 * std::numbers::pi));
        initials.push_back(std::move(x0));
    }

    EnsembleOptions options;
    options.numThreads = 2;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 1e-10;
    EnsembleOptions scalar = options;
    scalar.laneBatching = false;
    std::vector<SimResult> lane =
        sim::simulateEnsemble(system, initials, 0.0, 1e-8, options);
    std::vector<SimResult> ablation =
        sim::simulateEnsemble(system, initials, 0.0, 1e-8, scalar);
    for (std::size_t i = 0; i < initials.size(); ++i) {
        expectIdenticalResults(lane[i], ablation[i]);
        SimResult serial = sim::simulate(system, initials[i], 0.0,
                                         1e-8, options.sim);
        expectIdenticalResults(lane[i], serial);
    }
}

TEST(Dopri5BatchTest, NonfiniteInitialLaneRetiresAtStepZero)
{
    // A NaN initial state must retire its lane before any stepping,
    // mirroring serial simulate()'s step-0 structured failure, while
    // the remaining lanes integrate normally.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    std::vector<std::vector<double>> initials{
        {1.0, 0.0},
        {std::numeric_limits<double>::quiet_NaN(), 0.0},
        {0.5, 0.2},
    };
    EnsembleOptions options;
    options.numThreads = 1;
    std::vector<SimResult> batch =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, options);
    ASSERT_FALSE(batch[1].ok());
    EXPECT_EQ(batch[1].failure->reason, sim::AbortReason::Diverged);
    EXPECT_EQ(batch[1].failure->step, 0u);
    EXPECT_EQ(batch[1].trajectory.size(), 0u);
    EXPECT_TRUE(batch[0].ok());
    EXPECT_TRUE(batch[2].ok());
}

} // namespace
