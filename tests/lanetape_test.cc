/**
 * @file
 * Tests for lane-parallel tape execution: broadcast and merged
 * construction, per-lane constant tables, structural-compatibility
 * gating, edge cases of the interpreter's derived (load-free) stream,
 * and the lane-vs-scalar equivalence property across random
 * TLN/OBC/CNN systems at every supported width.
 *
 * Tolerance note: a LaneTape lane executes the source FusedTape's
 * instruction stream with the same IEEE operations in the same order,
 * so lane outputs are asserted bit-identical to the scalar fused
 * path (tolerance zero), not merely close. (The library builds with
 * -ffp-contract=off, so not even an ARK_ENABLE_NATIVE build contracts
 * the integrator loops, and the RHS programs compared here contain one
 * rounding per instruction on every path.)
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numbers>

#include "apps/puf.h"
#include "compiler/compiler.h"
#include "expr/cjit.h"
#include "expr/fusedtape.h"
#include "expr/lanetape.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace {

using namespace ark;
using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using expr::FusedTape;
using expr::LaneTape;

/** Evaluates one lane block and checks every lane against scalar. */
void
expectLanesMatchScalar(const LaneTape &lane,
                       const std::vector<const FusedTape *> &tapes,
                       const std::vector<std::vector<double>> &states,
                       double t)
{
    const std::size_t n = lane.numOutputs();
    const std::size_t width = lane.width();
    std::vector<double> soaState(n * width, 0.0);
    for (std::size_t l = 0; l < lane.lanes(); ++l)
        for (std::size_t i = 0; i < n; ++i)
            soaState[i * width + l] = states[l][i];
    // Padding lanes replicate lane 0, as the batch integrator does.
    for (std::size_t l = lane.lanes(); l < width; ++l)
        for (std::size_t i = 0; i < n; ++i)
            soaState[i * width + l] = states[0][i];

    std::vector<double> soaOut(n * width);
    std::vector<double> regs(lane.scratchSize());
    lane.evalInto(soaState.data(), t, soaOut.data(), regs.data());

    for (std::size_t l = 0; l < lane.lanes(); ++l) {
        std::vector<double> scalar = tapes[l]->evalAlloc(states[l], t);
        ASSERT_EQ(scalar.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(soaOut[i * width + l], scalar[i])
                << "lane " << l << " output " << i;
        }
    }
}

TEST(LaneTapeTest, BroadcastMatchesScalarAtEveryWidth)
{
    // dq0 = sin(q0 - q1) * q1, dq1 = q0 / (q1 + 3) + t.
    std::vector<ExprPtr> outputs{
        Expr::binary(BinOp::Mul,
                     Expr::call("sin",
                                {Expr::binary(BinOp::Sub,
                                              Expr::stateVar(0),
                                              Expr::stateVar(1))}),
                     Expr::stateVar(1)),
        Expr::binary(BinOp::Add,
                     Expr::binary(BinOp::Div, Expr::stateVar(0),
                                  Expr::binary(BinOp::Add,
                                               Expr::stateVar(1),
                                               Expr::real(3.0))),
                     Expr::time()),
    };
    FusedTape fused = FusedTape::compile(outputs);
    support::Rng rng(42);
    for (std::size_t lanes : {1u, 2u, 3u, 4u, 6u, 8u}) {
        LaneTape lane = LaneTape::broadcast(fused, lanes);
        EXPECT_EQ(lane.lanes(), lanes);
        EXPECT_GE(lane.width(), lanes);
        std::vector<const FusedTape *> tapes(lanes, &fused);
        std::vector<std::vector<double>> states;
        for (std::size_t l = 0; l < lanes; ++l)
            states.push_back(
                {rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)});
        expectLanesMatchScalar(lane, tapes, states, 0.75);
    }
}

TEST(LaneTapeTest, WidthIsSmallestCoveringPowerOfTwo)
{
    FusedTape fused = FusedTape::compile({Expr::stateVar(0)});
    EXPECT_EQ(LaneTape::broadcast(fused, 1).width(), 1u);
    EXPECT_EQ(LaneTape::broadcast(fused, 2).width(), 2u);
    EXPECT_EQ(LaneTape::broadcast(fused, 3).width(), 4u);
    EXPECT_EQ(LaneTape::broadcast(fused, 5).width(), 8u);
    EXPECT_EQ(LaneTape::broadcast(fused, 8).width(), 8u);
}

TEST(LaneTapeTest, MergeCarriesPerLaneConstants)
{
    // Same structure, different parameters: dq = -k*q + c with
    // (k, c) varying per lane — the PUF-mismatch shape in miniature.
    auto makeTape = [](double k, double c) {
        return FusedTape::compile({Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::real(-k), Expr::stateVar(0)),
            Expr::real(c))});
    };
    FusedTape a = makeTape(2.0, 0.5);
    FusedTape b = makeTape(3.5, -1.25);
    FusedTape c = makeTape(0.125, 7.0);
    ASSERT_TRUE(LaneTape::compatible(a, b));
    std::vector<const FusedTape *> tapes{&a, &b, &c};
    std::optional<LaneTape> lane = LaneTape::merge(tapes);
    ASSERT_TRUE(lane.has_value());
    EXPECT_EQ(lane->lanes(), 3u);
    EXPECT_EQ(lane->width(), 4u);
    std::vector<std::vector<double>> states{{1.5}, {-0.75}, {4.0}};
    expectLanesMatchScalar(*lane, tapes, states, 0.0);
}

TEST(LaneTapeTest, MergeRejectsStructuralDivergence)
{
    // Different operator: same instruction count, different stream.
    FusedTape add = FusedTape::compile({Expr::binary(
        BinOp::Add, Expr::stateVar(0), Expr::real(2.0))});
    FusedTape mul = FusedTape::compile({Expr::binary(
        BinOp::Mul, Expr::stateVar(0), Expr::real(2.0))});
    EXPECT_FALSE(LaneTape::compatible(add, mul));
    EXPECT_FALSE(LaneTape::merge({&add, &mul}).has_value());

    // Constant-folding divergence: x*1 folds away, x*1.5 does not, so
    // the "same" expression with different constants can still split
    // structurally — merge must detect it, not mis-batch.
    FusedTape identity = FusedTape::compile({Expr::binary(
        BinOp::Mul, Expr::stateVar(0), Expr::real(1.0))});
    FusedTape scaled = FusedTape::compile({Expr::binary(
        BinOp::Mul, Expr::stateVar(0), Expr::real(1.5))});
    EXPECT_FALSE(LaneTape::compatible(identity, scaled));
    EXPECT_FALSE(LaneTape::merge({&identity, &scaled}).has_value());
}

TEST(LaneTapeTest, PufChipsShareOneProgram)
{
    // Two fabricated chips of one PUF design differ only in their
    // sampled mismatch constants: their fused programs must merge.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language &gmcTln = registry.language("gmc-tln");
    apps::PufDesign design;
    design.mainSections = 8;
    design.numBranches = 2;
    design.stubSections = 2;
    apps::TlnPuf puf(gmcTln, design);

    std::vector<compiler::OdeSystem> chips;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        dg::Graph graph = puf.buildGraph(1, seed);
        validator::validateOrThrow(graph, gmcTln);
        chips.push_back(compiler::compile(graph, gmcTln));
    }
    ASSERT_TRUE(LaneTape::compatible(chips[0].fusedTape(),
                                     chips[1].fusedTape()));
    std::vector<const FusedTape *> tapes{&chips[0].fusedTape(),
                                         &chips[1].fusedTape(),
                                         &chips[2].fusedTape()};
    std::optional<LaneTape> lane = LaneTape::merge(tapes);
    ASSERT_TRUE(lane.has_value());

    support::Rng rng(7);
    std::vector<std::vector<double>> states;
    for (int l = 0; l < 3; ++l) {
        std::vector<double> state;
        for (std::size_t i = 0; i < chips[0].size(); ++i)
            state.push_back(rng.uniform(-1.0, 1.0));
        states.push_back(std::move(state));
    }
    expectLanesMatchScalar(*lane, tapes, states, 1e-8);
}

/**
 * Property: on real compiled systems, every lane of a broadcast
 * LaneTape at widths 1/2/4/8 reproduces the scalar fused path
 * bit-for-bit on random states.
 */
class LaneEquivalence : public ::testing::TestWithParam<int>
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

lang::LanguageRegistry *LaneEquivalence::registry_ = nullptr;

void
expectLaneAgreement(const compiler::OdeSystem &system, support::Rng &rng)
{
    const FusedTape &fused = system.fusedTape();
    for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
        LaneTape lane = LaneTape::broadcast(fused, lanes);
        std::vector<const FusedTape *> tapes(lanes, &fused);
        std::vector<std::vector<double>> states;
        for (std::size_t l = 0; l < lanes; ++l) {
            std::vector<double> state;
            for (std::size_t i = 0; i < system.size(); ++i)
                state.push_back(rng.uniform(-2.0, 2.0));
            states.push_back(std::move(state));
        }
        expectLanesMatchScalar(lane, tapes, states,
                               rng.uniform(0.0, 1e-7));
    }
}

TEST_P(LaneEquivalence, RandomTlnSystem)
{
    support::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
    paradigms::tln::LineSpec spec;
    spec.sections = static_cast<int>(rng.uniformInt(3, 24));
    spec.inductance = rng.uniform(0.5e-9, 2e-9);
    spec.capacitance = rng.uniform(0.5e-9, 2e-9);
    const lang::Language &tln = registry_->language("tln");
    compiler::OdeSystem system =
        compiler::compile(paradigms::tln::buildLine(tln, spec), tln);
    expectLaneAgreement(system, rng);
}

TEST_P(LaneEquivalence, RandomObcSystem)
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
    expectLaneAgreement(system, rng);
}

TEST_P(LaneEquivalence, RandomCnnSystem)
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
    expectLaneAgreement(system, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneEquivalence, ::testing::Range(0, 4));

/**
 * Derived-stream edge cases. `program(k)` builds one lane's outputs
 * with its own constant k; the lanes are merged at lane counts
 * 1/2/3/4/5/8, covering widths 1/2/4/8 plus the padded 3-of-4 and
 * 5-of-8 blocks, and every lane is checked bit-for-bit against the
 * FusedTape oracle.
 */
void
expectDerivedStreamAgreement(
    const std::function<std::vector<ExprPtr>(double)> &program)
{
    support::Rng rng(77);
    for (std::size_t lanes : {1u, 2u, 3u, 4u, 5u, 8u}) {
        std::vector<FusedTape> fused;
        for (std::size_t l = 0; l < lanes; ++l)
            fused.push_back(
                FusedTape::compile(program(1.5 + 0.125 * double(l))));
        std::vector<const FusedTape *> tapes;
        for (const FusedTape &tape : fused)
            tapes.push_back(&tape);
        std::optional<LaneTape> lane = LaneTape::merge(tapes);
        ASSERT_TRUE(lane.has_value()) << lanes << " lanes";
        std::vector<std::vector<double>> states;
        for (std::size_t l = 0; l < lanes; ++l) {
            std::vector<double> state;
            for (std::size_t i = 0; i < lane->numOutputs(); ++i)
                state.push_back(rng.uniform(-2.0, 2.0));
            states.push_back(std::move(state));
        }
        expectLanesMatchScalar(*lane, tapes, states, 0.625);
    }
}

TEST(LaneTapeTest, DerivedStreamBareConstantOutput)
{
    expectDerivedStreamAgreement([](double k) {
        return std::vector<ExprPtr>{
            Expr::real(k),
            Expr::binary(BinOp::Mul, Expr::stateVar(0), Expr::real(-0.5)),
        };
    });
}

TEST(LaneTapeTest, DerivedStreamBareStateOutput)
{
    // The order-2 shape: dq/dt = q' is a bare state load.
    expectDerivedStreamAgreement([](double k) {
        return std::vector<ExprPtr>{
            Expr::stateVar(1),
            Expr::binary(BinOp::Mul, Expr::real(-k), Expr::stateVar(0)),
        };
    });
}

/** True when an instruction's dst is the register a Const loaded for
 *  one of its own operands. */
bool
overwritesOwnConstant(const FusedTape &tape)
{
    std::vector<char> holdsConst(static_cast<std::size_t>(tape.numRegs()));
    for (const expr::TapeOp &op : tape.ops()) {
        if (op.op == expr::OpCode::WriteOutput)
            continue;
        const auto dst = static_cast<std::size_t>(op.dst);
        const bool loads = op.op == expr::OpCode::Const ||
                           op.op == expr::OpCode::LoadState ||
                           op.op == expr::OpCode::LoadTime;
        if (!loads && holdsConst[dst] &&
            (op.a == op.dst || op.b == op.dst || op.c == op.dst))
            return true;
        holdsConst[dst] = op.op == expr::OpCode::Const;
    }
    return false;
}

TEST(LaneTapeTest, DerivedStreamInstructionOverwritesItsConstant)
{
    // k * q0 reuses the constant's register for the product, and the
    // product is read again by the Sub: the operand must come from the
    // constant slot, and the later read from the register.
    auto program = [](double k) {
        return std::vector<ExprPtr>{
            Expr::binary(BinOp::Sub,
                         Expr::binary(BinOp::Mul, Expr::real(k),
                                      Expr::stateVar(0)),
                         Expr::stateVar(1)),
            Expr::binary(BinOp::Add, Expr::stateVar(1), Expr::real(-0.75)),
        };
    };
    ASSERT_TRUE(overwritesOwnConstant(FusedTape::compile(program(1.5))));
    expectDerivedStreamAgreement(program);
}

TEST(LaneTapeTest, DerivedStreamWithoutConstants)
{
    expectDerivedStreamAgreement([](double) {
        return std::vector<ExprPtr>{
            Expr::binary(BinOp::Mul, Expr::stateVar(0), Expr::stateVar(1)),
            Expr::binary(BinOp::Sub, Expr::stateVar(0),
                         Expr::binary(BinOp::Mul, Expr::stateVar(1),
                                      Expr::stateVar(1))),
        };
    });
}

TEST(LaneTapeTest, DerivedStreamWithoutStateLoads)
{
    expectDerivedStreamAgreement([](double k) {
        return std::vector<ExprPtr>{
            Expr::binary(BinOp::Mul, Expr::call("sin", {Expr::time()}),
                         Expr::real(k)),
            Expr::real(-3.0),
        };
    });
}

TEST(LaneTapeTest, KuramotoProgramExecutesLanewiseBitIdentical)
{
    // A Kuramoto program, a sum of sin couplings, across lanes: every
    // lane must reproduce the scalar tape bit for bit.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    support::Rng rng(4242);
    paradigms::obc::MaxcutInstance instance;
    instance.numVertices = 5;
    for (int a = 0; a < instance.numVertices; ++a)
        for (int b = a + 1; b < instance.numVertices; ++b)
            instance.edges.emplace_back(a, b);
    paradigms::obc::MaxcutSpec spec;
    for (int v = 0; v < instance.numVertices; ++v)
        spec.initPhases.push_back(0.2 * v);
    const lang::Language &obc = registry.language("obc");
    compiler::OdeSystem system = compiler::compile(
        paradigms::obc::buildMaxcut(obc, instance, spec), obc);
    const FusedTape &fused = system.fusedTape();

    for (std::size_t lanes : {2u, 4u, 8u}) {
        LaneTape lane = LaneTape::broadcast(fused, lanes);
        std::vector<const FusedTape *> tapes(lanes, &fused);
        std::vector<std::vector<double>> states;
        for (std::size_t l = 0; l < lanes; ++l) {
            std::vector<double> state;
            for (std::size_t i = 0; i < system.size(); ++i)
                state.push_back(rng.uniform(-2.0, 2.0));
            states.push_back(std::move(state));
        }
        expectLanesMatchScalar(lane, tapes, states, 1e-8);
    }
}

/** Instructions the interpreter dispatches for one lane of program(1.5). */
std::size_t
streamSizeOf(const std::function<std::vector<ExprPtr>(double)> &program)
{
    return LaneTape::broadcast(FusedTape::compile(program(1.5)), 1)
        .streamSize();
}

/** Which operand of the program's first Add a Div wrote: 0 for the
 *  left, 1 for the right, -1 for neither. */
int
divSideOfFirstAdd(const FusedTape &tape)
{
    std::vector<expr::OpCode> wrote(static_cast<std::size_t>(tape.numRegs()),
                                    expr::OpCode::Const);
    for (const expr::TapeOp &op : tape.ops()) {
        if (op.op == expr::OpCode::Add) {
            if (wrote[static_cast<std::size_t>(op.a)] == expr::OpCode::Div)
                return 0;
            return wrote[static_cast<std::size_t>(op.b)] == expr::OpCode::Div
                       ? 1
                       : -1;
        }
        if (op.op != expr::OpCode::WriteOutput)
            wrote[static_cast<std::size_t>(op.dst)] = op.op;
    }
    return -1;
}

ExprPtr
mul(ExprPtr a, ExprPtr b)
{
    return Expr::binary(BinOp::Mul, std::move(a), std::move(b));
}

ExprPtr
div(ExprPtr a, ExprPtr b)
{
    return Expr::binary(BinOp::Div, std::move(a), std::move(b));
}

ExprPtr
add(ExprPtr a, ExprPtr b)
{
    return Expr::binary(BinOp::Add, std::move(a), std::move(b));
}

TEST(LaneTapeTest, FusedMulDivStoresItsOutput)
{
    // (k * q0) / c: Mul, Div and WriteOutput become one instruction.
    auto program = [](double k) {
        return std::vector<ExprPtr>{
            div(mul(Expr::real(k), Expr::stateVar(0)), Expr::real(0.75)),
        };
    };
    EXPECT_EQ(FusedTape::compile(program(1.5)).size(), 6u);
    EXPECT_EQ(streamSizeOf(program), 1u);
    expectDerivedStreamAgreement(program);
}

TEST(LaneTapeTest, FusedTermOnTheRightOfItsAdd)
{
    // q1 + (k * q0) / c: q1 is numbered first, so the Add reads the
    // fused term on its right.
    auto program = [](double k) {
        return std::vector<ExprPtr>{
            Expr::stateVar(1),
            add(Expr::stateVar(1),
                div(mul(Expr::real(k), Expr::stateVar(0)), Expr::real(0.5))),
        };
    };
    ASSERT_EQ(divSideOfFirstAdd(FusedTape::compile(program(1.5))), 1);
    EXPECT_EQ(streamSizeOf(program), 2u); // WriteOutput q1, the sum
    expectDerivedStreamAgreement(program);
}

TEST(LaneTapeTest, FusedTermOnTheLeftOfItsAdd)
{
    // (k * q0) / c + sin(q1): the call is numbered after the term, so
    // the Add reads the fused term on its left.
    auto program = [](double k) {
        return std::vector<ExprPtr>{
            add(div(mul(Expr::real(k), Expr::stateVar(0)), Expr::real(0.5)),
                Expr::call("sin", {Expr::stateVar(1)})),
            Expr::stateVar(0),
        };
    };
    ASSERT_EQ(divSideOfFirstAdd(FusedTape::compile(program(1.5))), 0);
    EXPECT_EQ(streamSizeOf(program), 3u); // sin, the sum, WriteOutput q0
    expectDerivedStreamAgreement(program);
}

TEST(LaneTapeTest, ProductReadTwiceDoesNotFuse)
{
    // k * q0 feeds the Div and an output, so it must stay a Mul; the
    // Div still stores its own output.
    auto program = [](double k) {
        ExprPtr product = mul(Expr::real(k), Expr::stateVar(0));
        return std::vector<ExprPtr>{div(product, Expr::real(0.25)), product};
    };
    EXPECT_EQ(streamSizeOf(program), 3u); // Mul, Div, WriteOutput
    expectDerivedStreamAgreement(program);
}

/**
 * True when a register a Mul reads holds a computed value (a load is
 * folded into a constant or state row, which nothing overwrites) and
 * a later computing instruction overwrites it before the Div that
 * reads the product.
 */
bool
mulOperandRewrittenBeforeDiv(const FusedTape &tape)
{
    const std::vector<expr::TapeOp> &ops = tape.ops();
    auto loads = [](const expr::TapeOp &op) {
        return op.op == expr::OpCode::Const ||
               op.op == expr::OpCode::LoadState;
    };
    std::vector<char> computed(static_cast<std::size_t>(tape.numRegs()));
    for (std::size_t m = 0; m < ops.size(); ++m) {
        const expr::TapeOp &mul = ops[m];
        if (mul.op == expr::OpCode::WriteOutput)
            continue;
        bool rewritten = false;
        for (std::size_t i = m + 1;
             mul.op == expr::OpCode::Mul && i < ops.size(); ++i) {
            const expr::TapeOp &op = ops[i];
            if (op.op == expr::OpCode::WriteOutput)
                continue;
            if (op.op == expr::OpCode::Div && op.a == mul.dst) {
                if (rewritten)
                    return true;
                break;
            }
            if (op.dst == mul.dst)
                break;
            for (std::int32_t r : {mul.a, mul.b})
                if (r != mul.dst && computed[static_cast<std::size_t>(r)] &&
                    !loads(op) && op.dst == r)
                    rewritten = true;
        }
        computed[static_cast<std::size_t>(mul.dst)] = !loads(mul);
    }
    return false;
}

TEST(LaneTapeTest, ProductWhoseOperandIsOverwrittenDoesNotFuse)
{
    // k * sin(q0) frees sin's register, the sum q1 + q2 takes it over
    // (FIFO reuse), and only then does the Div read the product: a
    // fused (k * sin) / (q1 + q2) would read the sum as its sine.
    auto program = [](double k) {
        return std::vector<ExprPtr>{
            div(mul(Expr::real(k), Expr::call("sin", {Expr::stateVar(0)})),
                add(Expr::stateVar(1), Expr::stateVar(2))),
            Expr::stateVar(0),
            Expr::stateVar(1),
        };
    };
    ASSERT_TRUE(mulOperandRewrittenBeforeDiv(FusedTape::compile(program(1.5))));
    // sin, Mul, Add, the Div storing its output, two WriteOutputs.
    EXPECT_EQ(streamSizeOf(program), 6u);
    expectDerivedStreamAgreement(program);
}

TEST(LaneTapeTest, DivReadByAnAddAndAnOutputDoesNotFuse)
{
    // (k * q0) / c is an output and a term of the next one: the Mul
    // still fuses into the Div, but the Div joins neither reader.
    auto program = [](double k) {
        ExprPtr term = div(mul(Expr::real(k), Expr::stateVar(0)),
                           Expr::real(0.25));
        return std::vector<ExprPtr>{term, add(term, Expr::stateVar(1))};
    };
    EXPECT_EQ(streamSizeOf(program), 3u); // MulDiv, WriteOutput, Add
    expectDerivedStreamAgreement(program);
}

TEST(LaneTapeTest, OutputReadAgainDoesNotFuse)
{
    // q0 * q1 is an output and an operand of the next one, so its
    // register must hold it: the Mul keeps its WriteOutput.
    auto program = [](double) {
        ExprPtr product = mul(Expr::stateVar(0), Expr::stateVar(1));
        return std::vector<ExprPtr>{
            product, Expr::binary(BinOp::Sub, product, Expr::stateVar(1))};
    };
    EXPECT_EQ(streamSizeOf(program), 3u); // Mul, WriteOutput, Sub
    expectDerivedStreamAgreement(program);
}

TEST(LaneTapeTest, FusedFormsAgreeOnSpecialValues)
{
    // Each fused form over every (x, y, z, w) drawn from a grid of
    // signed zeros, infinities, NaNs with distinct payloads and
    // subnormals: the interpreter at W = 1, 2, 4, 8 and (given a
    // toolchain) the JIT kernel must return the oracle's bits, any NaN
    // matching any NaN as in TapeIsaTest (GCC treats + as commutative,
    // so which operand's payload an Add of two NaNs returns is the
    // compiler's choice in every evaluator).
    const double inf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double nanA = std::bit_cast<double>(0x7ff8000000000001ull);
    const double nanB = std::bit_cast<double>(0xfff8000000000abcull);
    const std::vector<double> grid{0.0,  -0.0,  1.0,  -3.0, inf,
                                   -inf, nanA,  nanB, tiny, -tiny,
                                   1e-310, 1e300};
    const ExprPtr x = Expr::stateVar(0), y = Expr::stateVar(1),
                  z = Expr::stateVar(2), w = Expr::stateVar(3);
    const FusedTape fused = FusedTape::compile({
        div(mul(x, y), z),                    // MulDiv
        add(w, div(mul(z, x), y)),            // AddMulDiv
        add(div(mul(w, y), x), Expr::time()), // MulDivAdd
        w,
    });
    // Per output one fused instruction; LoadTime; WriteOutput w.
    ASSERT_EQ(LaneTape::broadcast(fused, 1).streamSize(), 5u);

    const std::size_t g = grid.size();
    const std::size_t points = g * g * g * g;
    auto input = [&](std::size_t p, std::size_t var) {
        for (std::size_t i = 0; i < var; ++i)
            p /= g;
        return grid[p % g];
    };
    // Each aligned group of 8 points shares one time.
    auto timeOf = [&](std::size_t p) { return grid[(p / 8) % g]; };
    const std::size_t n = fused.numOutputs();
    std::vector<double> expected(points * n);
    for (std::size_t p = 0; p < points; ++p) {
        const std::vector<double> out = fused.evalAlloc(
            {input(p, 0), input(p, 1), input(p, 2), input(p, 3)}, timeOf(p));
        std::copy(out.begin(), out.end(), expected.begin() + p * n);
    }

    std::size_t mismatches = 0;
    for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
        const LaneTape tape = LaneTape::broadcast(fused, lanes);
        expr::JitKernelPtr kernel;
        if (expr::jitToolchainAvailable()) {
            kernel = expr::compileKernel(tape, "");
            ASSERT_NE(kernel, nullptr) << "width " << lanes;
        }
        std::vector<double> state(4 * lanes), out(n * lanes),
            regs(tape.scratchSize());
        auto check = [&](const char *tier, std::size_t first) {
            for (std::size_t l = 0; l < lanes; ++l)
                for (std::size_t k = 0; k < n; ++k) {
                    const double want = expected[(first + l) * n + k];
                    const double got = out[k * lanes + l];
                    if (std::bit_cast<std::uint64_t>(want) ==
                            std::bit_cast<std::uint64_t>(got) ||
                        (std::isnan(want) && std::isnan(got)) ||
                        ++mismatches > 10)
                        continue;
                    ADD_FAILURE() << tier << " W=" << lanes << " output "
                                  << k << " at point " << first + l
                                  << ": oracle " << want << ", got " << got;
                }
        };
        // points is a multiple of 8, so every block is full.
        for (std::size_t first = 0; first < points; first += lanes) {
            for (std::size_t l = 0; l < lanes; ++l)
                for (std::size_t var = 0; var < 4; ++var)
                    state[var * lanes + l] = input(first + l, var);
            tape.evalInto(state.data(), timeOf(first), out.data(),
                          regs.data());
            check("interpreter", first);
            if (kernel == nullptr)
                continue;
            kernel->call(state.data(), timeOf(first), out.data(),
                         tape.constants().data());
            check("kernel", first);
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(LaneTapeTest, GmcTlnLineDispatchCountIsPinned)
{
    // A fixed GmC-TLN line: every coupling term (w * x) / c fuses, and
    // each sum of two stores its output, so a lost fusion shows here
    // and not only in the benchmark.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language &gmc = registry.language("gmc-tln");
    paradigms::tln::LineSpec spec;
    spec.sections = 6;
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = 5;
    compiler::OdeSystem system =
        compiler::compile(paradigms::tln::buildLine(gmc, spec), gmc);
    const FusedTape &fused = system.fusedTape();
    EXPECT_EQ(fused.size(), 133u);
    for (std::size_t lanes : {1u, 3u, 8u})
        EXPECT_EQ(LaneTape::broadcast(fused, lanes).streamSize(), 30u)
            << lanes << " lanes";

    support::Rng rng(31);
    for (std::size_t lanes : {1u, 3u, 8u}) {
        std::vector<const FusedTape *> tapes(lanes, &fused);
        std::vector<std::vector<double>> states;
        for (std::size_t l = 0; l < lanes; ++l) {
            std::vector<double> state;
            for (std::size_t i = 0; i < system.size(); ++i)
                state.push_back(rng.uniform(-1.0, 1.0));
            states.push_back(std::move(state));
        }
        expectLanesMatchScalar(LaneTape::broadcast(fused, lanes), tapes,
                               states, 3e-9);
    }
}

} // namespace
