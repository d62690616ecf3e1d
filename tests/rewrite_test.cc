/**
 * @file
 * Tests for the opt-in reassociation pass (expr/rewrite.h): rule-level
 * unit checks, tolerance-level equivalence on real paradigm systems,
 * the GmC-TLN FMA-contraction win the pass exists for, bit-identity of
 * the default path, lane-vs-scalar parity in the Reassoc mode, and the
 * digest/fingerprint property hash-consing guarantees.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "compiler/compiler.h"
#include "engine/fingerprint.h"
#include "expr/expr.h"
#include "expr/fusedtape.h"
#include "expr/rewrite.h"
#include "lang/registry.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "sim/batch.h"
#include "sim/sim.h"
#include "support/rng.h"

namespace {

using namespace ark;
using compiler::OdeSystem;
using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using expr::UnOp;
using sim::EnsembleOptions;
using sim::SimResult;

// --- rule-level unit checks --------------------------------------------

TEST(RewriteTest, DivByLiteralBecomesReciprocalMul)
{
    ExprPtr x = Expr::var("x");
    expr::RewriteStats stats;
    ExprPtr out = expr::reassociate(
        Expr::binary(BinOp::Div, x, Expr::real(4.0)), &stats);
    EXPECT_EQ(out->str(), "(0.25 * x)");
    EXPECT_EQ(stats.divReciprocals, 1u);
}

TEST(RewriteTest, MulChainGathersCoefficients)
{
    ExprPtr x = Expr::var("x");
    ExprPtr e = Expr::binary(
        BinOp::Mul, Expr::binary(BinOp::Mul, Expr::real(2.0), x),
        Expr::real(3.0));
    EXPECT_EQ(expr::reassociate(e)->str(), "(6 * x)");
}

TEST(RewriteTest, NegAndSubFoldIntoCoefficients)
{
    ExprPtr x = Expr::var("x");
    ExprPtr a = Expr::var("a");
    ExprPtr neg = Expr::unary(
        UnOp::Neg, Expr::binary(BinOp::Mul, Expr::real(2.0), x));
    EXPECT_EQ(expr::reassociate(neg)->str(), "(-2 * x)");

    ExprPtr sub = Expr::binary(
        BinOp::Sub, a, Expr::binary(BinOp::Mul, Expr::real(2.0), x));
    EXPECT_EQ(expr::reassociate(sub)->str(), "(a + (-2 * x))");
}

TEST(RewriteTest, LeavesUnsafePositionsAlone)
{
    ExprPtr x = Expr::var("x");
    ExprPtr y = Expr::var("y");
    // Non-literal divisor: no reciprocal (1/y rounds differently).
    ExprPtr div = Expr::binary(BinOp::Div, x, y);
    EXPECT_EQ(expr::reassociate(div).get(), div.get());
    // Comparison operands decide branches - untouched.
    ExprPtr cmp = Expr::binary(
        BinOp::Lt, Expr::binary(BinOp::Div, x, Expr::real(4.0)), y);
    EXPECT_EQ(expr::reassociate(cmp).get(), cmp.get());
    // If conditions untouched; branches are value positions.
    ExprPtr branchy = Expr::ifThenElse(
        cmp, Expr::binary(BinOp::Div, x, Expr::real(4.0)), y);
    ExprPtr out = expr::reassociate(branchy);
    EXPECT_EQ(out->cond().get(), cmp.get());
    EXPECT_EQ(out->thenBranch()->str(), "(0.25 * x)");
    // Sums keep their operand order.
    ExprPtr sum = Expr::binary(BinOp::Add, x, y);
    EXPECT_EQ(expr::reassociate(sum).get(), sum.get());
}

// --- paradigm systems --------------------------------------------------

OdeSystem
gmcTlnSystem(lang::LanguageRegistry &registry, std::uint64_t seed)
{
    const lang::Language &gmcTln = registry.language("gmc-tln");
    support::Rng rng(seed);
    paradigms::tln::LineSpec spec;
    spec.sections = static_cast<int>(rng.uniformInt(3, 12));
    spec.inductance = rng.uniform(0.5e-9, 2e-9);
    spec.capacitance = rng.uniform(0.5e-9, 2e-9);
    spec.sourceConductance = rng.uniform(0.5, 2.0);
    spec.termConductance = rng.uniform(0.5, 2.0);
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = rng.deriveSeed();
    return compiler::compile(paradigms::tln::buildLine(gmcTln, spec),
                             gmcTln);
}

OdeSystem
obcSystem(lang::LanguageRegistry &registry, int vertices)
{
    const lang::Language &obc = registry.language("obc");
    paradigms::obc::MaxcutInstance instance;
    instance.numVertices = vertices;
    for (int a = 0; a < vertices; ++a)
        for (int b = a + 1; b < vertices; ++b)
            instance.edges.emplace_back(a, b);
    paradigms::obc::MaxcutSpec spec;
    for (int v = 0; v < vertices; ++v)
        spec.initPhases.push_back(0.31 * v);
    return compiler::compile(
        paradigms::obc::buildMaxcut(obc, instance, spec), obc);
}

OdeSystem
cnnSystem(lang::LanguageRegistry &registry, std::uint64_t seed)
{
    const lang::Language &cnn = registry.language("cnn");
    support::Rng rng(seed);
    paradigms::cnn::CnnSpec spec;
    spec.width = 4;
    spec.height = 4;
    std::vector<double> input;
    for (int i = 0; i < spec.width * spec.height; ++i)
        input.push_back(rng.uniform(-1.0, 1.0));
    return compiler::compile(
        paradigms::cnn::buildCnn(cnn, spec, input), cnn);
}

TEST(RewriteTest, GmcTlnContractsUnderReassocOnly)
{
    // The motivating case: every GmC-TLN production rule divides its
    // product by a capacitance/inductance, so the plain FMA matcher
    // finds almost nothing, while the reassociated tape contracts the
    // whole sum-of-products (observed: 1 vs 22 on this seed).
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    OdeSystem system = gmcTlnSystem(registry, 7);
    std::uint64_t plainFma =
        system.rhsTape(expr::RoundingMode::Fma).fmaContractions();
    std::uint64_t reassoc =
        system.rhsTape(expr::RoundingMode::Reassoc).fmaContractions();
    EXPECT_GE(reassoc, 5 * (plainFma + 1));
    const expr::RewriteStats &stats = system.reassocStats();
    EXPECT_GT(stats.divReciprocals, 0u);
    EXPECT_LT(stats.nodesAfter, stats.nodesBefore);
}

TEST(RewriteTest, ToleranceEquivalenceOnParadigmSystems)
{
    // Property: on random states, the reassociated tape agrees with
    // the default tape to rounding (a few ulps per term), across
    // paradigms with different expression shapes.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<OdeSystem> systems;
    systems.push_back(gmcTlnSystem(registry, 11));
    systems.push_back(gmcTlnSystem(registry, 12));
    systems.push_back(obcSystem(registry, 5));
    systems.push_back(cnnSystem(registry, 13));
    support::Rng rng(99);
    for (std::size_t s = 0; s < systems.size(); ++s) {
        const OdeSystem &system = systems[s];
        const expr::FusedTape &plain = system.fusedTape();
        const expr::FusedTape &reassoc =
            system.rhsTape(expr::RoundingMode::Reassoc);
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<double> state;
            for (std::size_t i = 0; i < system.size(); ++i)
                state.push_back(rng.uniform(-1.0, 1.0));
            double t = rng.uniform(0.0, 1e-8);
            std::vector<double> a = plain.evalAlloc(state, t);
            std::vector<double> b = reassoc.evalAlloc(state, t);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                double scale = 1.0 + std::fabs(a[i]);
                EXPECT_NEAR(a[i], b[i], 1e-9 * scale)
                    << "system " << s << " output " << i << " trial "
                    << trial;
            }
        }
    }
}

TEST(RewriteTest, DefaultPathUnaffected)
{
    // In the Exact mode, tape selection returns the exact same
    // program as before the pass existed; the Fma and Reassoc modes
    // each select their own variant, built once.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    OdeSystem system = gmcTlnSystem(registry, 21);
    using expr::RoundingMode;
    EXPECT_EQ(&system.rhsTape(RoundingMode::Exact), &system.fusedTape());
    const expr::FusedTape &fma = system.rhsTape(RoundingMode::Fma);
    const expr::FusedTape &reassoc = system.rhsTape(RoundingMode::Reassoc);
    EXPECT_NE(&fma, &system.fusedTape());
    EXPECT_NE(&reassoc, &fma);
    EXPECT_EQ(&system.rhsTape(RoundingMode::Fma), &fma);
    EXPECT_EQ(&system.rhsTape(RoundingMode::Reassoc), &reassoc);
}

TEST(RewriteTest, LaneScalarParityUnderReassoc)
{
    // All tiers execute the same reassociated program in the Reassoc
    // mode, so lane-vs-scalar results stay bit-identical, exactly as
    // in the Fma mode.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    OdeSystem system = obcSystem(registry, 5);

    std::vector<std::vector<double>> initials;
    support::Rng rng(31);
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
    options.sim.rounding = expr::RoundingMode::Reassoc;
    EnsembleOptions scalar = options;
    scalar.laneBatching = false;
    std::vector<SimResult> lane =
        sim::simulateEnsemble(system, initials, 0.0, 1e-8, options);
    std::vector<SimResult> ablation =
        sim::simulateEnsemble(system, initials, 0.0, 1e-8, scalar);
    for (std::size_t inst = 0; inst < initials.size(); ++inst) {
        ASSERT_TRUE(lane[inst].ok());
        ASSERT_TRUE(ablation[inst].ok());
        const auto &a = lane[inst].trajectory;
        const auto &b = ablation[inst].trajectory;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t s = 0; s < a.size(); ++s) {
            ASSERT_EQ(a.time(s), b.time(s));
            auto sa = a.state(s);
            auto sb = b.state(s);
            for (std::size_t i = 0; i < sa.size(); ++i)
                ASSERT_EQ(sa[i], sb[i])
                    << "instance " << inst << " sample " << s
                    << " state " << i;
        }
    }
}

// --- hash-consing properties -------------------------------------------

TEST(RewriteTest, PointerEqualityImpliesFingerprintEquality)
{
    // engine::Hasher absorbs the interned digest, so two separately
    // built (hence pointer-equal) trees must fingerprint identically,
    // and structurally distinct trees must not.
    ExprPtr a = Expr::binary(
        BinOp::Div,
        Expr::binary(BinOp::Mul, Expr::real(0.75), Expr::stateVar(2)),
        Expr::real(3e-9));
    ExprPtr b = Expr::binary(
        BinOp::Div,
        Expr::binary(BinOp::Mul, Expr::real(0.75), Expr::stateVar(2)),
        Expr::real(3e-9));
    ASSERT_EQ(a.get(), b.get());
    engine::Hasher ha, hb, hc;
    ha.absorb(*a);
    hb.absorb(*b);
    EXPECT_EQ(ha.finish(), hb.finish());
    ExprPtr c = Expr::binary(
        BinOp::Div,
        Expr::binary(BinOp::Mul, Expr::real(0.75), Expr::stateVar(2)),
        Expr::real(3.0000001e-9));
    hc.absorb(*c);
    EXPECT_FALSE(ha.finish() == hc.finish());
}

TEST(RewriteTest, InternedRhsEvaluatesLikeInterpreter)
{
    // Interning + single-pass instantiate must not change semantics:
    // the tree-walking interpreter over the (shared) RHS agrees
    // bit-for-bit with the fused tape on random states.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<OdeSystem> systems;
    systems.push_back(gmcTlnSystem(registry, 41));
    systems.push_back(obcSystem(registry, 4));
    systems.push_back(cnnSystem(registry, 42));
    support::Rng rng(7);
    for (const OdeSystem &system : systems) {
        std::vector<double> scratch = system.makeScratch();
        std::vector<double> viaTape(system.size());
        std::vector<double> viaTree(system.size());
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<double> state;
            for (std::size_t i = 0; i < system.size(); ++i)
                state.push_back(rng.uniform(-1.0, 1.0));
            double t = rng.uniform(0.0, 1e-8);
            system.evalRhs(state.data(), t, viaTape.data(), scratch);
            system.evalRhsInterpreted(state.data(), t, viaTree.data());
            for (std::size_t i = 0; i < system.size(); ++i)
                ASSERT_EQ(viaTape[i], viaTree[i]) << "state " << i;
        }
    }
}

} // namespace
