/**
 * @file
 * Tests for the batched ensemble simulation engine: determinism
 * against the serial path at every thread count, heterogeneous-system
 * batteries, failure propagation, saved columns (SimOptions::save) at
 * every block width of both integrators, and the batched PUF/max-cut
 * app entry points that ride on it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/experiments.h"
#include "apps/puf.h"
#include "compiler/compiler.h"
#include "lang/registry.h"
#include "paradigms/standard.h"
#include "sim/sim.h"
#include "support/error.h"
#include "support/ledger.h"
#include "support/rng.h"

namespace {

using namespace ark;
using compiler::OdeSystem;
using lang::GraphBuilder;
using sim::EnsembleOptions;
using sim::SimResult;
using support::SimError;

/** dx/dt = -k x built through the full Ark pipeline. */
OdeSystem
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
    GraphBuilder builder(registry.language("decay"), 0);
    builder.node("x", "X");
    builder.attr("x", "k", k);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, x0);
    return compiler::compile(builder.take(),
                             registry.language("decay"));
}

void
expectIdenticalResults(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.rejectedSteps, b.rejectedSteps);
    for (std::size_t s = 0; s < a.trajectory.size(); ++s) {
        EXPECT_EQ(a.trajectory.time(s), b.trajectory.time(s));
        auto stateA = a.trajectory.state(s);
        auto stateB = b.trajectory.state(s);
        ASSERT_EQ(stateA.size(), stateB.size());
        for (std::size_t i = 0; i < stateA.size(); ++i)
            EXPECT_EQ(stateA[i], stateB[i]) << "sample " << s;
    }
}

TEST(EnsembleTest, MatchesSerialSimulateBitForBit)
{
    // The bit-for-bit ensemble contract covers the fixed-step lane
    // path and the scalar adaptive path (laneBatching off). The
    // lane-batched Dopri5 driver integrates on a shared voted grid
    // and is only tolerance-level equivalent to serial — covered in
    // dopri5_batch_test, not here.
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 2.0, 1.0);
    std::vector<std::vector<double>> initials;
    for (int i = 0; i < 8; ++i)
        initials.push_back({0.25 * (i + 1)});

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        for (bool rk4 : {true, false}) {
            EnsembleOptions options;
            options.numThreads = threads;
            if (rk4) {
                options.sim.method = sim::Method::Rk4;
                options.sim.dt = 1e-3;
            } else {
                options.laneBatching = false; // scalar Dopri5
            }
            std::vector<SimResult> batch = sim::simulateEnsemble(
                system, initials, 0.0, 2.0, options);
            ASSERT_EQ(batch.size(), initials.size());
            for (std::size_t i = 0; i < initials.size(); ++i) {
                SimResult serial =
                    sim::simulate(system, initials[i], 0.0, 2.0,
                                  options.sim);
                expectIdenticalResults(batch[i], serial);
            }
        }
    }
}

TEST(EnsembleTest, InitialStateOverloadIntegratesFromThere)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    SimResult result =
        sim::simulate(system, {10.0}, 0.0, 1.0, sim::SimOptions{});
    EXPECT_NEAR(result.trajectory.sampleAt(0, 1.0),
                10.0 * std::exp(-1.0), 1e-4);
}

TEST(EnsembleTest, HeterogeneousSystemsRunConcurrently)
{
    lang::LanguageRegistry registry;
    std::vector<OdeSystem> systems;
    for (int i = 0; i < 6; ++i)
        systems.push_back(decaySystem(registry, 1.0 + i, 2.0 + i));
    std::vector<const OdeSystem *> pointers;
    for (const OdeSystem &system : systems)
        pointers.push_back(&system);

    EnsembleOptions options;
    options.numThreads = 3;
    std::vector<SimResult> batch =
        sim::simulateEnsemble(pointers, 0.0, 1.0, options);
    ASSERT_EQ(batch.size(), systems.size());
    for (std::size_t i = 0; i < systems.size(); ++i) {
        double k = 1.0 + static_cast<double>(i);
        double x0 = 2.0 + static_cast<double>(i);
        EXPECT_NEAR(batch[i].trajectory.sampleAt(0, 1.0),
                    x0 * std::exp(-k), 1e-3)
            << "instance " << i;
    }
}

TEST(EnsembleTest, EmptyBatchesAreFine)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    EXPECT_TRUE(sim::simulateEnsemble(system, {}, 0.0, 1.0).empty());
    EXPECT_TRUE(sim::simulateEnsemble(
                    std::vector<const OdeSystem *>{}, 0.0, 1.0)
                    .empty());
}

TEST(EnsembleTest, WrongDimensionRejected)
{
    lang::LanguageRegistry registry;
    OdeSystem system = decaySystem(registry, 1.0, 1.0);
    EXPECT_THROW(
        sim::simulateEnsemble(system, {{1.0, 2.0}}, 0.0, 1.0),
        SimError);
}

TEST(EnsembleTest, DivergingInstanceReportsStructuredFailure)
{
    // dx/dt = x^3 diverges from |x0| >= 2 but is tame from small x0;
    // the diverging instance gets a structured failure and must not
    // take down the healthy ones — on either execution path.
    lang::LanguageRegistry registry;
    registry.addProgram(R"(
        lang boom {
            ntyp(1,sum) X {init(0) real[-10,10]};
            etyp E {};
            prod(e:E,s:X->s:X) s <= var(s)*var(s)*var(s);
        }
    )");
    GraphBuilder builder(registry.language("boom"), 0);
    builder.node("x", "X");
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 0.1);
    OdeSystem system =
        compiler::compile(builder.take(), registry.language("boom"));
    EnsembleOptions options;
    options.numThreads = 4;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 1e-3;
    std::vector<std::vector<double>> initials{
        {0.1}, {2.5}, {0.2}, {0.0}};
    for (bool lanes : {true, false}) {
        options.laneBatching = lanes;
        std::vector<SimResult> batch = sim::simulateEnsemble(
            system, initials, 0.0, 1.0, options);
        ASSERT_EQ(batch.size(), 4u);
        for (std::size_t i : {0u, 2u, 3u})
            EXPECT_TRUE(batch[i].ok()) << "instance " << i;
        ASSERT_FALSE(batch[1].ok());
        EXPECT_EQ(batch[1].failure->reason,
                  sim::AbortReason::Diverged);
        EXPECT_EQ(batch[1].failure->stateIndex, 0);
        EXPECT_GT(batch[1].failure->step, 0u);
        // From x0=2.5 the blowup lands at 1/(2 x0^2) = 0.08.
        EXPECT_LT(batch[1].failure->time, 0.5);
        // The masked lane matches the scalar run exactly, failure
        // point included.
        SimResult serial =
            sim::simulate(system, initials[1], 0.0, 1.0, options.sim);
        ASSERT_FALSE(serial.ok());
        EXPECT_EQ(batch[1].failure->step, serial.failure->step);
        EXPECT_EQ(batch[1].failure->time, serial.failure->time);
        expectIdenticalResults(batch[1], serial);
    }
}

/**
 * Independent oscillators x'' = -(k w)^2 x, one order-2 node per name
 * (the k-th at k times w), so a save list picks whole derivative
 * chains out of a multi-node state.
 */
OdeSystem
oscillatorBank(lang::LanguageRegistry &registry,
               const std::vector<std::string> &nodes, double w)
{
    if (!registry.findLanguage("bank")) {
        registry.addProgram(R"(
            lang bank {
                ntyp(2,sum) X {attr w2=real[0,1000],
                               init(0) real[-10,10],
                               init(1) real[-10,10]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= -s.w2*var(s);
            }
        )");
    }
    GraphBuilder builder(registry.language("bank"), 0);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
        const std::string &node = nodes[k];
        const double wk = w * static_cast<double>(k + 1);
        builder.node(node, "X");
        builder.attr(node, "w2", wk * wk);
        builder.edge(node + "_self", "E", node, node);
        builder.init(node, 0, 1.0);
        builder.init(node, 1, 0.0);
    }
    return compiler::compile(builder.take(), registry.language("bank"));
}

void
expectSameBits(std::span<const double> a, std::span<const double> b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << "entry " << i;
}

/**
 * `saved` is `full` with only the states `columns` stored: the same
 * steps, failure and sample times, and for each stored state the same
 * values and slopes bit for bit, read by column or by state index.
 * Reading any other state index throws.
 */
void
expectSavedColumns(const SimResult &saved, const SimResult &full,
                   const std::vector<std::size_t> &columns)
{
    EXPECT_EQ(saved.steps, full.steps);
    EXPECT_EQ(saved.rejectedSteps, full.rejectedSteps);
    ASSERT_EQ(saved.ok(), full.ok());
    if (!full.ok()) {
        EXPECT_EQ(saved.failure->reason, full.failure->reason);
        EXPECT_EQ(saved.failure->step, full.failure->step);
        EXPECT_EQ(saved.failure->stateIndex, full.failure->stateIndex);
        EXPECT_EQ(saved.failure->time, full.failure->time);
    }
    const sim::Trajectory &a = saved.trajectory;
    const sim::Trajectory &b = full.trajectory;
    ASSERT_EQ(a.columns(), columns);
    ASSERT_EQ(a.stateDim(), columns.size());
    ASSERT_EQ(a.times(), b.times());
    ASSERT_EQ(a.hasDerivs(), b.hasDerivs());
    ASSERT_GT(a.size(), 1u);
    for (std::size_t s = 0; s < a.size(); ++s) {
        for (std::size_t c = 0; c < columns.size(); ++c) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.state(s)[c]),
                      std::bit_cast<std::uint64_t>(
                          b.state(s)[columns[c]]));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.deriv(s)[c]),
                      std::bit_cast<std::uint64_t>(
                          b.deriv(s)[columns[c]]));
        }
    }
    // Twice as many grid points as samples: most land between two
    // samples, on the Hermite path.
    const double t0 = a.times().front();
    const double t1 = a.times().back();
    const std::size_t grid = 2 * a.size() + 1;
    for (std::size_t i = 0; i < b.stateDim(); ++i) {
        const int index = static_cast<int>(i);
        if (std::binary_search(columns.begin(), columns.end(), i)) {
            expectSameBits(a.series(index), b.series(index));
            expectSameBits(a.resample(index, t0, t1, grid),
                           b.resample(index, t0, t1, grid));
        } else {
            EXPECT_THROW(a.series(index), SimError) << "state " << i;
            EXPECT_THROW(a.sampleAt(index, t0), SimError);
            EXPECT_THROW(a.resample(index, t0, t1, grid), SimError);
        }
    }
}

/** One saved-columns case: the integrator and the block width. */
struct SaveCase
{
    sim::Method method;
    std::size_t width;
};

class SavedColumnsTest : public ::testing::TestWithParam<SaveCase>
{
};

TEST_P(SavedColumnsTest, MatchTheFullRunBitForBit)
{
    // `width` systems of one structure integrate as one lane block of
    // that width, once storing every state and once saving nodes c
    // and a (both derivative orders each, listed out of order). The
    // systems name their nodes in rotated orders, so lane-mates
    // resolve the list to different states.
    const SaveCase param = GetParam();
    lang::LanguageRegistry registry;
    std::vector<OdeSystem> systems;
    for (std::size_t i = 0; i < param.width; ++i) {
        std::vector<std::string> nodes{"a", "b", "c"};
        std::rotate(nodes.begin(),
                    nodes.begin() + static_cast<std::ptrdiff_t>(i % 3),
                    nodes.end());
        systems.push_back(oscillatorBank(
            registry, nodes, 1.1 + 0.1 * static_cast<double>(i)));
    }
    std::vector<const OdeSystem *> pointers;
    for (const OdeSystem &system : systems)
        pointers.push_back(&system);

    telemetry::RunLedger ledger;
    EnsembleOptions options;
    options.numThreads = 1;
    options.ledger = &ledger;
    options.sim.method = param.method;
    options.sim.dt = 1e-3;
    options.sim.recordDt = 0.01;
    std::vector<SimResult> full =
        sim::simulateEnsemble(pointers, 0.0, 2.0, options);
    for (const telemetry::RunLedger::Record &record : ledger.records())
        ASSERT_EQ(record.laneWidth, param.width);
    options.sim.save = {"c", "a"};
    std::vector<SimResult> saved =
        sim::simulateEnsemble(pointers, 0.0, 2.0, options);
    ASSERT_EQ(full.size(), param.width);
    ASSERT_EQ(saved.size(), param.width);

    for (std::size_t i = 0; i < param.width; ++i) {
        std::vector<std::size_t> columns;
        for (const char *node : {"a", "c"})
            for (int order : {0, 1})
                columns.push_back(static_cast<std::size_t>(
                    systems[i].stateIndex(node, order)));
        std::sort(columns.begin(), columns.end());
        ASSERT_TRUE(full[i].ok()) << "instance " << i;
        expectSavedColumns(saved[i], full[i], columns);
        if (param.width == 1) {
            // simulate() resolves the list itself and runs this block.
            expectSavedColumns(
                sim::simulate(systems[i], 0.0, 2.0, options.sim), full[i],
                columns);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, SavedColumnsTest,
    ::testing::Values(SaveCase{sim::Method::Dopri5, 1},
                      SaveCase{sim::Method::Dopri5, 2},
                      SaveCase{sim::Method::Dopri5, 4},
                      SaveCase{sim::Method::Dopri5, 8},
                      SaveCase{sim::Method::Rk4, 1},
                      SaveCase{sim::Method::Rk4, 8}),
    [](const auto &info) {
        return std::string(info.param.method == sim::Method::Rk4
                               ? "Rk4"
                               : "Dopri5") +
               "W" + std::to_string(info.param.width);
    });

TEST(EnsembleTest, UnknownSavedNodeThrowsBeforeAnyInstanceIntegrates)
{
    // The second system lacks node b. That is a caller error, thrown
    // before the first system (which has b and forms its own block)
    // integrates: the ledger receives no record.
    lang::LanguageRegistry registry;
    OdeSystem withB = oscillatorBank(registry, {"a", "b"}, 1.1);
    OdeSystem withoutB = oscillatorBank(registry, {"a", "c", "d"}, 1.2);
    telemetry::RunLedger ledger;
    EnsembleOptions options;
    options.numThreads = 1;
    options.ledger = &ledger;
    options.sim.save = {"b"};
    EXPECT_THROW(sim::simulateEnsemble(
                     std::vector<const OdeSystem *>{&withB, &withoutB},
                     0.0, 1.0, options),
                 SimError);
    EXPECT_THROW(sim::simulateEnsemble(withoutB,
                                       {withoutB.initialState()}, 0.0,
                                       1.0, options),
                 SimError);
    EXPECT_EQ(ledger.size(), 0u);
    EXPECT_THROW(sim::simulate(withoutB, 0.0, 1.0, options.sim), SimError);
}

TEST(EnsembleTest, PufBatchedResponsesMatchSerial)
{
    lang::LanguageRegistry registry =
        paradigms::makeStandardRegistry();
    apps::PufDesign design;
    design.mainSections = 8;
    design.numBranches = 2;
    design.stubSections = 2;
    design.responseBits = 24;
    apps::TlnPuf puf(registry.language("gmc-tln"), design);

    std::vector<std::uint64_t> chips{1, 2, 3};
    auto batch = puf.responseBatch(1, chips, 0.0, {}, 3);
    ASSERT_EQ(batch.size(), chips.size());
    for (std::size_t i = 0; i < chips.size(); ++i)
        EXPECT_EQ(batch[i], puf.response(1, chips[i])) << "chip " << i;
}

TEST(EnsembleTest, MaxcutBatchMatchesKnownShape)
{
    lang::LanguageRegistry registry =
        paradigms::makeStandardRegistry();
    auto outcomes = apps::experiments::runMaxcutSims(
        registry.language("obc"), false, 4);
    ASSERT_EQ(outcomes.size(), 4u);
    for (const auto &outcome : outcomes) {
        EXPECT_EQ(outcome.phases.size(), 4u);
        for (double phase : outcome.phases)
            EXPECT_TRUE(std::isfinite(phase));
    }
}

} // namespace
