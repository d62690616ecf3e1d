/**
 * @file
 * Tests for the fused whole-system tape: multi-output correctness,
 * cross-equation CSE, constant folding, the sign and parity
 * identities, register reuse, error handling, and a randomized
 * equivalence property against the tree-walking interpreter and
 * one-output tapes per equation across real TLN/OBC/CNN systems.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "compiler/compiler.h"
#include "expr/eval.h"
#include "expr/fusedtape.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "support/error.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace {

using namespace ark;
using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using expr::FusedTape;

/** One output's expression compiled and evaluated on its own. */
double
evalOne(const ExprPtr &e, const std::vector<double> &state, double t)
{
    return FusedTape::compile({e}).evalAlloc(state, t)[0];
}

TEST(FusedTapeTest, MultiOutputMatchesPerExpressionTapes)
{
    // dq0 = sin(q0 - q1), dq1 = sin(q0 - q1) * q1, dq2 = t + 2.
    ExprPtr shared = Expr::call(
        "sin", {Expr::binary(BinOp::Sub, Expr::stateVar(0),
                             Expr::stateVar(1))});
    std::vector<ExprPtr> outputs{
        shared,
        Expr::binary(BinOp::Mul, shared, Expr::stateVar(1)),
        Expr::binary(BinOp::Add, Expr::time(), Expr::real(2.0)),
    };
    FusedTape fused = FusedTape::compile(outputs);
    ASSERT_EQ(fused.numOutputs(), 3u);
    EXPECT_EQ(fused.maxStateIndex(), 1);

    std::vector<double> state{0.7, -0.3};
    std::vector<double> got = fused.evalAlloc(state, 1.5);
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t k = 0; k < outputs.size(); ++k) {
        EXPECT_DOUBLE_EQ(got[k], evalOne(outputs[k], state, 1.5))
            << "output " << k;
    }
}

TEST(FusedTapeTest, SharedSubexpressionsCompiledOnce)
{
    // Both outputs use the same expensive coupling term; the fused
    // program must be smaller than the per-expression programs.
    ExprPtr coupling = Expr::binary(
        BinOp::Mul, Expr::real(-1.6e9),
        Expr::call("sin", {Expr::binary(BinOp::Sub, Expr::stateVar(0),
                                        Expr::stateVar(1))}));
    std::vector<ExprPtr> outputs{
        Expr::binary(BinOp::Add, coupling, Expr::stateVar(0)),
        Expr::binary(BinOp::Add, coupling, Expr::stateVar(1)),
    };
    FusedTape fused = FusedTape::compile(outputs);
    std::size_t perTape = FusedTape::compile({outputs[0]}).size() +
                          FusedTape::compile({outputs[1]}).size();
    EXPECT_LT(fused.size(), perTape);
    EXPECT_GT(fused.fusionSavings(), 0u);
}

TEST(FusedTapeTest, ConstantExpressionsFold)
{
    // (2 + 3) * 4 collapses to a single Const plus a WriteOutput.
    std::vector<ExprPtr> outputs{Expr::binary(
        BinOp::Mul,
        Expr::binary(BinOp::Add, Expr::real(2.0), Expr::real(3.0)),
        Expr::real(4.0))};
    FusedTape fused = FusedTape::compile(outputs);
    EXPECT_EQ(fused.size(), 2u);
    EXPECT_DOUBLE_EQ(fused.evalAlloc({}, 0.0)[0], 20.0);
}

TEST(FusedTapeTest, IdentityRewritesAreExact)
{
    // x*1, x+0, x/1 fold to x itself.
    ExprPtr x = Expr::stateVar(0);
    std::vector<ExprPtr> outputs{
        Expr::binary(BinOp::Mul, x, Expr::real(1.0)),
        Expr::binary(BinOp::Add, x, Expr::real(0.0)),
        Expr::binary(BinOp::Div, x, Expr::real(1.0)),
    };
    FusedTape fused = FusedTape::compile(outputs);
    // One LoadState + three WriteOutput.
    EXPECT_EQ(fused.size(), 4u);
    std::vector<double> state{3.25};
    std::vector<double> got = fused.evalAlloc(state, 0.0);
    for (double v : got)
        EXPECT_DOUBLE_EQ(v, 3.25);
}

TEST(FusedTapeTest, MirroredCallsLowerOnce)
{
    // One program over every sign and parity identity: a mirrored odd
    // call lowers to a Neg of its twin, a mirrored even call to the
    // twin itself, and a Neg leaves sums, differences, products and
    // quotients.
    const ExprPtr x = Expr::stateVar(0), y = Expr::stateVar(1);
    auto neg = [](const ExprPtr &e) {
        return Expr::unary(expr::UnOp::Neg, e);
    };
    auto call = [](const char *f, const ExprPtr &e) {
        return Expr::call(f, {e});
    };
    const ExprPtr xy = Expr::binary(BinOp::Sub, x, y);
    const ExprPtr yx = Expr::binary(BinOp::Sub, y, x);
    const std::vector<ExprPtr> outputs{
        call("sin", xy),
        call("sin", yx),
        call("sin", neg(x)),
        call("cos", yx),
        call("abs", xy),
        Expr::binary(BinOp::Add, x, neg(y)),
        Expr::binary(BinOp::Sub, x, neg(y)),
        Expr::binary(BinOp::Mul, neg(x), y),
        Expr::binary(BinOp::Div, x, neg(y)),
        neg(neg(x)),
    };
    const FusedTape fused = FusedTape::compile(outputs);
    std::size_t calls = 0;
    for (const expr::TapeOp &op : fused.ops())
        calls += op.op == expr::OpCode::CallB;
    // sin(x - y), sin(x), cos(x - y) and abs(x - y).
    EXPECT_EQ(calls, 4u);
    // Two loads, x - y, the four calls, -sin(x - y), -sin(x), x + y,
    // x*y, x/y and their two Negs (x + (-y) is x - y and -(-x) is x):
    // 14 values and 10 WriteOutputs.
    EXPECT_EQ(fused.size(), 24u);

    auto tree = [&outputs](const std::vector<double> &state) {
        expr::EvalContext ctx;
        ctx.lookupState = [&state](int i) {
            return state[static_cast<std::size_t>(i)];
        };
        std::vector<double> out;
        for (const ExprPtr &e : outputs)
            out.push_back(expr::evalReal(e, ctx));
        return out;
    };
    support::Rng rng(20);
    for (int trial = 0; trial < 1000; ++trial) {
        const std::vector<double> state{rng.uniform(-4.0, 4.0),
                                        rng.uniform(-4.0, 4.0)};
        const std::vector<double> got = fused.evalAlloc(state, 0.0);
        const std::vector<double> want = tree(state);
        for (std::size_t k = 0; k < outputs.size(); ++k)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                      std::bit_cast<std::uint64_t>(want[k]))
                << outputs[k]->str() << " at x=" << state[0]
                << " y=" << state[1];
    }

    // At x == y, sin(y - x) is -sin(+0) = -0 where the tree computes
    // sin(+0) = +0: equal, but not bit for bit.
    const std::vector<double> tie{0.625, 0.625};
    const std::vector<double> got = fused.evalAlloc(tie, 0.0);
    const std::vector<double> want = tree(tie);
    for (std::size_t k = 0; k < outputs.size(); ++k)
        EXPECT_EQ(got[k], want[k]) << outputs[k]->str();
    EXPECT_TRUE(std::signbit(got[1]));
    EXPECT_FALSE(std::signbit(want[1]));
}

TEST(FusedTapeTest, DifferencesWithConstantsKeepTheirOrder)
{
    // Equal constants merge in a value-specialised compile and stay
    // apart as template slots, so value ids order a Const differently
    // in the two. sin(x - c) is therefore never reordered, and a bound
    // template still matches the direct compile bit for bit, at the
    // tie x == c and on a NaN state included.
    const double c = 2.5;
    const ExprPtr x = Expr::stateVar(0), y = Expr::stateVar(1);
    auto program = [&](const ExprPtr &k, const ExprPtr &offset) {
        return std::vector<ExprPtr>{
            Expr::binary(BinOp::Mul, k, y),
            Expr::call("sin", {Expr::binary(BinOp::Sub, x, offset)})};
    };
    const ExprPtr p = Expr::param(0), q = Expr::param(1);
    const FusedTape bound =
        FusedTape::compile(program(p, q), false, {p, q}).bind({c, c});
    const FusedTape direct =
        FusedTape::compile(program(Expr::real(c), Expr::real(c)));
    for (double state0 : {c, std::numeric_limits<double>::quiet_NaN(),
                          -0.75}) {
        const std::vector<double> state{state0, 1.5};
        const std::vector<double> a = bound.evalAlloc(state, 0.0);
        const std::vector<double> b = direct.evalAlloc(state, 0.0);
        for (std::size_t k = 0; k < a.size(); ++k)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a[k]),
                      std::bit_cast<std::uint64_t>(b[k]))
                << "output " << k << " at x=" << state0;
    }
}

TEST(FusedTapeTest, RegisterReuseKeepsFileSmall)
{
    // A deep chain of independent additions: liveness-based reuse
    // must keep the register file well below the instruction count.
    std::vector<ExprPtr> outputs;
    for (int k = 0; k < 8; ++k) {
        ExprPtr sum = Expr::stateVar(k);
        for (int i = 0; i < 8; ++i) {
            sum = Expr::binary(
                BinOp::Add, sum,
                Expr::binary(BinOp::Mul, Expr::stateVar(i),
                             Expr::real(1.0 + k + i)));
        }
        outputs.push_back(sum);
    }
    FusedTape fused = FusedTape::compile(outputs);
    EXPECT_LT(static_cast<std::size_t>(fused.numRegs()), fused.size());

    std::vector<double> state{0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, 1.8};
    std::vector<double> got = fused.evalAlloc(state, 0.0);
    for (std::size_t k = 0; k < outputs.size(); ++k) {
        EXPECT_NEAR(got[k], evalOne(outputs[k], state, 0.0), 1e-12)
            << "output " << k;
    }
}

TEST(FusedTapeTest, EmptySystemIsValid)
{
    FusedTape fused = FusedTape::compile({});
    EXPECT_EQ(fused.numOutputs(), 0u);
    EXPECT_EQ(fused.size(), 0u);
    EXPECT_TRUE(fused.evalAlloc({}, 0.0).empty());
}

TEST(FusedTapeTest, UnresolvedNodesRejected)
{
    EXPECT_THROW(FusedTape::compile({Expr::var("free")}),
                 support::CompileError);
    EXPECT_THROW(FusedTape::compile({Expr::nodeVar("n")}),
                 support::CompileError);
    EXPECT_THROW(FusedTape::compile({Expr::attr("a", "b")}),
                 support::CompileError);
    EXPECT_THROW(FusedTape::compile({Expr::call("whoami", {})}),
                 support::CompileError);
}

/**
 * Property: on real compiled systems (TLN lines, OBC max-cut
 * networks, CNN grids) with randomized parameters and random states,
 * the fused tape, a one-output tape per equation, and the
 * tree-walking interpreter agree within floating-point tolerance.
 */
class FusedEquivalence : public ::testing::TestWithParam<int>
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

lang::LanguageRegistry *FusedEquivalence::registry_ = nullptr;

void
expectRhsAgreement(const compiler::OdeSystem &system, support::Rng &rng)
{
    const std::size_t n = system.size();
    std::vector<double> state(n), fused(n), perTape(n), interpreted(n);
    std::vector<double> scratch = system.makeScratch();
    std::vector<FusedTape> perEquation;
    for (const ExprPtr &e : system.rhsExprs())
        perEquation.push_back(FusedTape::compile({e}));
    for (int trial = 0; trial < 8; ++trial) {
        for (std::size_t i = 0; i < n; ++i)
            state[i] = rng.uniform(-2.0, 2.0);
        double t = rng.uniform(0.0, 1e-7);
        system.evalRhs(state.data(), t, fused.data(), scratch);
        for (std::size_t i = 0; i < n; ++i)
            perTape[i] = perEquation[i].evalAlloc(state, t)[0];
        system.evalRhsInterpreted(state.data(), t, interpreted.data());
        for (std::size_t i = 0; i < n; ++i) {
            double scale = 1.0 + std::fabs(interpreted[i]);
            EXPECT_NEAR(fused[i], interpreted[i], 1e-9 * scale)
                << "fused vs interpreted, eq " << i;
            EXPECT_NEAR(fused[i], perTape[i], 1e-9 * scale)
                << "fused vs per-tape, eq " << i;
        }
    }
}

TEST_P(FusedEquivalence, RandomTlnSystem)
{
    support::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::tln::LineSpec spec;
    spec.sections = static_cast<int>(rng.uniformInt(3, 24));
    spec.inductance = rng.uniform(0.5e-9, 2e-9);
    spec.capacitance = rng.uniform(0.5e-9, 2e-9);
    const lang::Language &tln = registry_->language("tln");
    compiler::OdeSystem system =
        compiler::compile(paradigms::tln::buildLine(tln, spec), tln);
    expectRhsAgreement(system, rng);
}

TEST_P(FusedEquivalence, RandomObcSystem)
{
    support::Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
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
    compiler::OdeSystem system = compiler::compile(
        paradigms::obc::buildMaxcut(obc, instance, spec), obc);
    expectRhsAgreement(system, rng);
}

TEST_P(FusedEquivalence, RandomCnnSystem)
{
    support::Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::cnn::CnnSpec spec;
    spec.width = static_cast<int>(rng.uniformInt(3, 6));
    spec.height = static_cast<int>(rng.uniformInt(3, 6));
    std::vector<double> input;
    for (int i = 0; i < spec.width * spec.height; ++i)
        input.push_back(rng.bernoulli(0.5) ? 1.0 : -1.0);
    const lang::Language &cnn = registry_->language("cnn");
    compiler::OdeSystem system = compiler::compile(
        paradigms::cnn::buildCnn(cnn, spec, input), cnn);
    expectRhsAgreement(system, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedEquivalence,
                         ::testing::Range(0, 6));

TEST(FusedTapeFmaTest, SingleUseMulAddContractsToOneFma)
{
    // q0*q1 + q2: the product feeds exactly one Add and nothing else,
    // so the FMA variant must contract the pair into one FusedMulAdd
    // whose result is bit-exactly std::fma(a, b, c) — one rounding,
    // where the plain program rounds the product first.
    ExprPtr e = Expr::binary(
        BinOp::Add,
        Expr::binary(BinOp::Mul, Expr::stateVar(0), Expr::stateVar(1)),
        Expr::stateVar(2));
    FusedTape plain = FusedTape::compile({e});
    EXPECT_EQ(plain.fmaContractions(), 0u); // default compile never fuses
    FusedTape fma = FusedTape::compile({e}, /*fuseMulAdd=*/true);
    EXPECT_EQ(fma.fmaContractions(), 1u);
    EXPECT_EQ(fma.size(), plain.size() - 1);
    // The variant may allocate slightly differently (three operands
    // live into one instruction); OdeSystem sizes one scratch block
    // for the max of all paths.
    EXPECT_LE(fma.numRegs(), plain.numRegs() + 1);

    // Operands where the two rounding regimes provably differ:
    // (1+2^-27)^2 = 1 + 2^-26 + 2^-54 rounds to 1 + 2^-26, so the
    // plain path cancels to exactly 0 while the fused path keeps the
    // 2^-54 tail.
    double a = 1.0 + std::ldexp(1.0, -27);
    double c = -(1.0 + std::ldexp(1.0, -26));
    std::vector<double> state{a, a, c};
    double plainVal = plain.evalAlloc(state, 0.0)[0];
    double fmaVal = fma.evalAlloc(state, 0.0)[0];
    EXPECT_EQ(plainVal, a * a + c);
    EXPECT_EQ(plainVal, 0.0);
    EXPECT_EQ(fmaVal, std::fma(a, a, c));
    EXPECT_EQ(fmaVal, std::ldexp(1.0, -54));
    EXPECT_NE(fmaVal, plainVal); // the one-rounding contract is visible
}

TEST(FusedTapeFmaTest, SharedProductsAreNotContracted)
{
    // The product q0*q1 feeds two Adds (and CSE computes it once):
    // contracting it would re-evaluate the multiply per use, so the
    // peephole must leave it alone.
    ExprPtr product =
        Expr::binary(BinOp::Mul, Expr::stateVar(0), Expr::stateVar(1));
    std::vector<ExprPtr> outputs{
        Expr::binary(BinOp::Add, product, Expr::stateVar(2)),
        Expr::binary(BinOp::Add, product, Expr::time()),
    };
    FusedTape plain = FusedTape::compile(outputs);
    FusedTape fma = FusedTape::compile(outputs, /*fuseMulAdd=*/true);
    EXPECT_EQ(fma.fmaContractions(), 0u);
    EXPECT_EQ(fma.size(), plain.size());
}

TEST(FusedTapeFmaTest, OutputProductsAreNotContracted)
{
    // The product is itself an output (WriteOutput reads it) besides
    // feeding the Add: two readers, no contraction.
    ExprPtr product =
        Expr::binary(BinOp::Mul, Expr::stateVar(0), Expr::stateVar(1));
    std::vector<ExprPtr> outputs{
        product,
        Expr::binary(BinOp::Add, product, Expr::stateVar(2)),
    };
    FusedTape fma = FusedTape::compile(outputs, /*fuseMulAdd=*/true);
    EXPECT_EQ(fma.fmaContractions(), 0u);
}

TEST(FusedTapeFmaTest, FmaVariantMatchesPlainToRounding)
{
    // Kuramoto RHS programs are sum-of-products (K*sin(...) chains):
    // the variant must contract a healthy fraction of the stream and
    // agree with the plain program to rounding everywhere. (TLN GmC
    // lines put a Div between every product and its sum, so they
    // contract nothing — which is correct, not a missed case.)
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    support::Rng rng(77);
    paradigms::obc::MaxcutInstance instance;
    instance.numVertices = 6;
    for (int a = 0; a < instance.numVertices; ++a)
        for (int b = a + 1; b < instance.numVertices; ++b)
            instance.edges.emplace_back(a, b);
    paradigms::obc::MaxcutSpec spec;
    for (int v = 0; v < instance.numVertices; ++v)
        spec.initPhases.push_back(0.37 * v);
    const lang::Language &obc = registry.language("obc");
    compiler::OdeSystem system = compiler::compile(
        paradigms::obc::buildMaxcut(obc, instance, spec), obc);
    const FusedTape &plain = system.fusedTape();
    const FusedTape &fma = system.rhsTape(expr::RoundingMode::Fma);
    EXPECT_EQ(plain.fmaContractions(), 0u);
    EXPECT_GT(fma.fmaContractions(), 0u);
    EXPECT_EQ(fma.size(), plain.size() - fma.fmaContractions());

    const std::size_t n = system.size();
    std::vector<double> state(n);
    for (int trial = 0; trial < 16; ++trial) {
        for (std::size_t i = 0; i < n; ++i)
            state[i] = rng.uniform(-2.0, 2.0);
        double t = rng.uniform(0.0, 1e-7);
        std::vector<double> a = plain.evalAlloc(state, t);
        std::vector<double> b = fma.evalAlloc(state, t);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < n; ++i) {
            double scale = 1.0 + std::fabs(a[i]);
            EXPECT_NEAR(a[i], b[i], 1e-12 * scale)
                << "output " << i << " trial " << trial;
        }
    }
}

} // namespace
