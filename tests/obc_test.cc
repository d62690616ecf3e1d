/**
 * @file
 * OBC paradigm tests: Kuramoto synchronization physics, SHIL phase
 * binarization, max-cut decoding, brute-force baseline, the offset
 * nonideality, one sine per coupling in the compiled programs, and
 * intercon-obc interconnect restrictions.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "apps/experiments.h"
#include "compiler/compiler.h"
#include "engine/cache.h"
#include "engine/session.h"
#include "expr/cjit.h"
#include "expr/lanetape.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "sim/sim.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace {

using namespace ark;
namespace pobc = paradigms::obc;
namespace exp = apps::experiments;
constexpr double kPi = std::numbers::pi;

class ObcTest : public ::testing::Test
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
    static const lang::Language &obc()
    {
        return registry_->language("obc");
    }
    static const lang::Language &ofs()
    {
        return registry_->language("ofs-obc");
    }
    static const lang::Language &intercon()
    {
        return registry_->language("intercon-obc");
    }

    /** Final phases after relaxing the network. */
    static std::vector<double>
    relax(const dg::Graph &graph, const lang::Language &language, int n)
    {
        validator::validateOrThrow(graph, language);
        compiler::OdeSystem system = compiler::compile(graph, language);
        sim::SimResult result = sim::simulate(system, 0.0, 5e-8);
        std::vector<double> phases;
        for (int v = 0; v < n; ++v) {
            phases.push_back(result.trajectory.state(
                result.trajectory.size() -
                1)[static_cast<std::size_t>(
                system.stateIndex(pobc::oscName(v), 0))]);
        }
        return phases;
    }

    /** Phase distance modulo 2pi. */
    static double
    phaseDist(double a, double b)
    {
        double d = std::fmod(std::fabs(a - b), 2.0 * kPi);
        return std::min(d, 2.0 * kPi - d);
    }

    static lang::LanguageRegistry *registry_;
};

lang::LanguageRegistry *ObcTest::registry_ = nullptr;

TEST_F(ObcTest, LanguageStructure)
{
    EXPECT_EQ(obc().types().nodeType("Osc").order, 1);
    EXPECT_NE(obc().types().edgeType("Cpl").findAttr("k"), nullptr);
    EXPECT_EQ(obc().prodRules().size(), 3u);
    EXPECT_TRUE(ofs().types().isEdgeAncestor("Cpl", "Cpl_ofs"));
    EXPECT_TRUE(
        ofs().types().edgeType("Cpl_ofs").findAttr("offset")
            ->type.hasMismatch());
}

TEST_F(ObcTest, TwoOscillatorsAntiAlign)
{
    // Anti-ferromagnetic coupling (k < 0) plus SHIL drives a pair to
    // opposite binary phases.
    pobc::MaxcutInstance pair;
    pair.numVertices = 2;
    pair.edges = {{0, 1}};
    pobc::MaxcutSpec spec;
    spec.initPhases = {0.4, 0.9};
    dg::Graph graph = pobc::buildMaxcut(obc(), pair, spec);
    auto phases = relax(graph, obc(), 2);
    EXPECT_NEAR(phaseDist(phases[0], phases[1]), kPi, 0.05);
}

TEST_F(ObcTest, PositiveCouplingAligns)
{
    pobc::MaxcutInstance pair;
    pair.numVertices = 2;
    pair.edges = {{0, 1}};
    pobc::MaxcutSpec spec;
    spec.coupling = 1.0; // ferromagnetic
    spec.initPhases = {0.4, 1.2};
    dg::Graph graph = pobc::buildMaxcut(obc(), pair, spec);
    auto phases = relax(graph, obc(), 2);
    EXPECT_NEAR(phaseDist(phases[0], phases[1]), 0.0, 0.05);
}

TEST_F(ObcTest, ShilBinarizesPhases)
{
    // Even an uncoupled oscillator relaxes to a multiple of pi.
    pobc::MaxcutInstance lone;
    lone.numVertices = 1;
    pobc::MaxcutSpec spec;
    spec.initPhases = {1.2};
    dg::Graph graph = pobc::buildMaxcut(obc(), lone, spec);
    auto phases = relax(graph, obc(), 1);
    double frac = std::fmod(phases[0], kPi);
    double distToGrid = std::min(frac, kPi - frac);
    EXPECT_LT(distToGrid, 0.01);
}

TEST_F(ObcTest, DecodePartition)
{
    auto p = pobc::decodePartition({0.005, kPi - 0.005, 2 * kPi - 0.002,
                                    kPi + 0.008},
                                   0.01 * kPi);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, (std::vector<int>{0, 1, 0, 1}));
    // An oscillator stuck between bands voids the decode.
    EXPECT_FALSE(pobc::decodePartition({kPi / 2}, 0.01 * kPi)
                     .has_value());
    // Looser tolerance absorbs jitter.
    EXPECT_FALSE(pobc::decodePartition({0.2}, 0.01 * kPi).has_value());
    EXPECT_TRUE(pobc::decodePartition({0.2}, 0.1 * kPi).has_value());
}

TEST_F(ObcTest, BruteForceKnownGraphs)
{
    // Triangle: best cut 2; K4: best cut 4; path(4): 3; empty: 0.
    pobc::MaxcutInstance triangle{3, {{0, 1}, {1, 2}, {0, 2}}};
    EXPECT_EQ(pobc::bruteForceMaxCut(triangle), 2);
    pobc::MaxcutInstance k4{
        4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}};
    EXPECT_EQ(pobc::bruteForceMaxCut(k4), 4);
    pobc::MaxcutInstance path{4, {{0, 1}, {1, 2}, {2, 3}}};
    EXPECT_EQ(pobc::bruteForceMaxCut(path), 3);
    pobc::MaxcutInstance empty{3, {}};
    EXPECT_EQ(pobc::bruteForceMaxCut(empty), 0);
    EXPECT_EQ(pobc::cutSize(path, {0, 1, 0, 1}), 3);
    EXPECT_EQ(pobc::cutSize(path, {0, 0, 0, 0}), 0);
}

TEST_F(ObcTest, BipartiteGraphSolvesExactly)
{
    // A 4-cycle is bipartite: the oscillator network must find the
    // full cut of 4 from generic initial conditions.
    pobc::MaxcutInstance cycle{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}};
    pobc::MaxcutSpec spec;
    spec.initPhases = {0.3, 2.8, 1.0, 4.5};
    dg::Graph graph = pobc::buildMaxcut(obc(), cycle, spec);
    auto phases = relax(graph, obc(), 4);
    auto partition = pobc::decodePartition(phases, 0.05 * kPi);
    ASSERT_TRUE(partition.has_value());
    EXPECT_EQ(pobc::cutSize(cycle, *partition), 4);
}

TEST_F(ObcTest, OffsetCausesResidualPhaseError)
{
    pobc::MaxcutInstance pair;
    pair.numVertices = 2;
    pair.edges = {{0, 1}};
    pobc::MaxcutSpec ideal;
    ideal.initPhases = {0.4, 2.0};
    pobc::MaxcutSpec offset = ideal;
    offset.withOffset = true;
    offset.seed = 11;
    auto idealPhases = relax(pobc::buildMaxcut(obc(), pair, ideal),
                             obc(), 2);
    auto offsetPhases = relax(pobc::buildMaxcut(ofs(), pair, offset),
                              ofs(), 2);
    double idealErr =
        std::fabs(phaseDist(idealPhases[0], idealPhases[1]) - kPi);
    double offsetErr =
        std::fabs(phaseDist(offsetPhases[0], offsetPhases[1]) - kPi);
    EXPECT_LT(idealErr, 1e-3);
    EXPECT_GT(offsetErr, idealErr);
}

TEST_F(ObcTest, Table1ShapeHolds)
{
    // Reduced-trials version of Table 1 (the bench runs 1000): the
    // offset nonideality degrades tight-tolerance accuracy, and the
    // looser tolerance recovers it.
    auto ideal = exp::runMaxcutSims(obc(), false, 60);
    auto offset = exp::runMaxcutSims(ofs(), true, 60);
    exp::ObcRow idealTight = exp::scoreMaxcut(ideal, 0.01 * kPi);
    exp::ObcRow offsetTight = exp::scoreMaxcut(offset, 0.01 * kPi);
    exp::ObcRow offsetLoose = exp::scoreMaxcut(offset, 0.1 * kPi);
    EXPECT_GT(idealTight.solvedProb, 80.0);
    EXPECT_LT(offsetTight.solvedProb, idealTight.solvedProb - 10.0);
    EXPECT_GT(offsetLoose.solvedProb, offsetTight.solvedProb + 10.0);
}

TEST_F(ObcTest, ParallelFrontEndMatchesSerialRecomposition)
{
    // runMaxcutSims draws, builds and compiles its trials on the worker
    // pool, from a cold cache here so template lowerings race. Its
    // phases must equal, bit for bit, the same trials compiled one at
    // a time in trial order and integrated as one ensemble.
    const int trials = 64;
    const std::uint64_t seedBase = 1;
    for (bool withOffset : {false, true}) {
        const lang::Language &language = withOffset ? ofs() : obc();
        engine::ArtifactCache::shared().clear();
        std::vector<exp::MaxcutOutcome> parallel =
            exp::runMaxcutSims(language, withOffset, trials, seedBase);

        engine::ArtifactCache cache;
        const engine::Session session(
            engine::SessionOptions{.cache = &cache});
        std::vector<pobc::MaxcutInstance> instances;
        std::vector<engine::SystemPtr> systems;
        for (int trial = 0; trial < trials; ++trial) {
            support::Rng rng(seedBase + static_cast<std::uint64_t>(trial));
            pobc::MaxcutInstance instance;
            instance.numVertices = 4;
            for (int a = 0; a < 4; ++a)
                for (int b = a + 1; b < 4; ++b)
                    if (rng.bernoulli(0.5))
                        instance.edges.emplace_back(a, b);
            pobc::MaxcutSpec spec;
            spec.withOffset = withOffset;
            spec.seed = seedBase + static_cast<std::uint64_t>(trial);
            for (int v = 0; v < 4; ++v)
                spec.initPhases.push_back(rng.uniform(0.0, 2.0 * kPi));
            systems.push_back(session.compile(
                pobc::buildMaxcut(language, instance, spec), language));
            instances.push_back(std::move(instance));
        }
        sim::EnsembleOptions options;
        options.sim.recordDt = 1e-9;
        std::vector<sim::SimResult> results =
            session.runEnsemble(systems, 0.0, 5e-8, options);

        ASSERT_EQ(parallel.size(), static_cast<std::size_t>(trials));
        for (std::size_t trial = 0; trial < parallel.size(); ++trial) {
            EXPECT_EQ(parallel[trial].instance.edges,
                      instances[trial].edges);
            ASSERT_TRUE(results[trial].ok());
            const sim::Trajectory &trajectory = results[trial].trajectory;
            auto final = trajectory.state(trajectory.size() - 1);
            ASSERT_EQ(parallel[trial].phases.size(), 4u);
            for (int v = 0; v < 4; ++v) {
                const double expected = final[static_cast<std::size_t>(
                    systems[trial]->stateIndex(pobc::oscName(v), 0))];
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              parallel[trial].phases[
                                  static_cast<std::size_t>(v)]),
                          std::bit_cast<std::uint64_t>(expected))
                    << "offset " << withOffset << " trial " << trial
                    << " oscillator " << v;
            }
        }
    }
}

TEST_F(ObcTest, MaxcutProgramsCarryOneSinPerEdge)
{
    // An edge gives its endpoints sin(var(s)-var(t)) and
    // sin(-var(s)+var(t)); the second lowers to a Neg of the first, so
    // every four-vertex program, on obc and on ofs-obc, calls sin once
    // per vertex (its SHIL term) and once per edge. It still matches
    // the tree interpreter and, given a toolchain, the JIT kernel at
    // W = 1 and W = 8 bit for bit.
    const std::vector<std::pair<int, int>> pairs{{0, 1}, {0, 2}, {0, 3},
                                                 {1, 2}, {1, 3}, {2, 3}};
    const bool jit = expr::jitToolchainAvailable();
    support::Rng rng(64);
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (bool withOffset : {false, true}) {
        const lang::Language &language = withOffset ? ofs() : obc();
        for (unsigned mask = 0; mask < 64; ++mask) {
            pobc::MaxcutInstance instance;
            instance.numVertices = 4;
            for (std::size_t e = 0; e < pairs.size(); ++e)
                if ((mask >> e) & 1u)
                    instance.edges.push_back(pairs[e]);
            pobc::MaxcutSpec spec;
            spec.withOffset = withOffset;
            spec.seed = mask + 1;
            spec.initPhases = {0.3, 1.0, 3.0, 6.0};
            const compiler::OdeSystem system = compiler::compile(
                pobc::buildMaxcut(language, instance, spec), language);
            const expr::FusedTape &fused = system.fusedTape();
            std::size_t sines = 0;
            for (const expr::TapeOp &op : fused.ops())
                sines += op.op == expr::OpCode::CallB &&
                         op.builtin == expr::Builtin::Sin;
            EXPECT_EQ(sines, 4 + instance.edges.size())
                << "offset " << withOffset << " edge set " << mask;

            const std::size_t n = system.size();
            std::vector<double> state(n), tape(n), tree(n);
            std::vector<double> scratch = system.makeScratch();
            for (int trial = 0; trial < 4; ++trial) {
                for (double &phase : state)
                    phase = rng.uniform(0.0, 2.0 * kPi);
                system.evalRhs(state.data(), 0.0, tape.data(), scratch);
                system.evalRhsInterpreted(state.data(), 0.0, tree.data());
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(bits(tape[i]), bits(tree[i]))
                        << "offset " << withOffset << " edge set "
                        << mask << " output " << i;
            }

            if (!jit)
                continue;
            for (std::size_t lanes : {1u, 8u}) {
                const expr::LaneTape lane =
                    expr::LaneTape::broadcast(fused, lanes);
                expr::JitKernelPtr kernel = expr::compileKernel(lane, "");
                ASSERT_NE(kernel, nullptr);
                std::vector<double> block(n * lanes), interpreted(n * lanes),
                    compiled(n * lanes), regs(lane.scratchSize());
                for (double &phase : block)
                    phase = rng.uniform(0.0, 2.0 * kPi);
                lane.evalInto(block.data(), 0.0, interpreted.data(),
                              regs.data());
                kernel->call(block.data(), 0.0, compiled.data(),
                             lane.constants().data());
                for (std::size_t i = 0; i < n * lanes; ++i)
                    EXPECT_EQ(bits(compiled[i]), bits(interpreted[i]))
                        << "offset " << withOffset << " edge set "
                        << mask << " width " << lanes << " slot " << i;
            }
        }
    }
}

TEST_F(ObcTest, MaxcutSpecValidation)
{
    pobc::MaxcutInstance bad{2, {{0, 5}}};
    EXPECT_THROW(pobc::buildMaxcut(obc(), bad, pobc::MaxcutSpec{}),
                 support::SemaError);
    pobc::MaxcutInstance pair{2, {{0, 1}}};
    pobc::MaxcutSpec withOffset;
    withOffset.withOffset = true;
    EXPECT_THROW(pobc::buildMaxcut(obc(), pair, withOffset),
                 support::SemaError); // obc lacks Cpl_ofs
    pobc::MaxcutSpec badInit;
    badInit.initPhases = {0.1};
    EXPECT_THROW(pobc::buildMaxcut(obc(), pair, badInit),
                 support::SemaError);
}

// --- intercon-obc -------------------------------------------------------------

TEST_F(ObcTest, GroupedTopologyValidates)
{
    pobc::MaxcutInstance ring{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}};
    pobc::GroupedSpec spec;
    spec.groups = {0, 0, 1, 1};
    dg::Graph graph = pobc::buildGrouped(intercon(), ring, spec);
    EXPECT_TRUE(validator::validate(graph, intercon()).ok);
    // Cost: 2 local (1) + 2 global (10) = 22.
    EXPECT_EQ(pobc::interconnectCost(graph), 22);
}

TEST_F(ObcTest, CrossGroupLocalEdgeRejected)
{
    dg::Graph illegal = pobc::buildGroupedIllegal(intercon());
    validator::ValidationResult result =
        validator::validate(illegal, intercon());
    EXPECT_FALSE(result.ok);
}

TEST_F(ObcTest, GroupedNetworkStillComputes)
{
    // The interconnect constraints restrict topology, not dynamics:
    // a legal grouped 4-cycle solves max-cut like the flat network.
    pobc::MaxcutInstance ring{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}};
    pobc::GroupedSpec spec;
    spec.groups = {0, 0, 1, 1};
    spec.initPhases = {0.3, 2.8, 1.0, 4.5};
    dg::Graph graph = pobc::buildGrouped(intercon(), ring, spec);
    auto phases = relax(graph, intercon(), 4);
    auto partition = pobc::decodePartition(phases, 0.05 * kPi);
    ASSERT_TRUE(partition.has_value());
    EXPECT_EQ(pobc::cutSize(ring, *partition), 4);
}

TEST_F(ObcTest, GroupedSpecValidation)
{
    pobc::MaxcutInstance pair{2, {{0, 1}}};
    pobc::GroupedSpec shortGroups;
    shortGroups.groups = {0};
    EXPECT_THROW(pobc::buildGrouped(intercon(), pair, shortGroups),
                 support::SemaError);
    pobc::GroupedSpec badGroup;
    badGroup.groups = {0, 7};
    EXPECT_THROW(pobc::buildGrouped(intercon(), pair, badGroup),
                 support::SemaError);
    EXPECT_THROW(pobc::buildGrouped(obc(), pair, badGroup),
                 support::SemaError); // wrong language
}

} // namespace
