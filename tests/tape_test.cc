/**
 * @file
 * Tests for the tape compiler on single expressions (one-output
 * FusedTapes): opcode coverage, error handling, and a randomized
 * equivalence property against the interpreter.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/fold.h"
#include "expr/fusedtape.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

using namespace ark;
using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using expr::FusedTape;
using expr::UnOp;

double
tapeEval(const ExprPtr &e, const std::vector<double> &state, double t)
{
    FusedTape tape = FusedTape::compile({e});
    return tape.evalAlloc(state, t)[0];
}

TEST(TapeTest, ConstantsAndState)
{
    EXPECT_DOUBLE_EQ(tapeEval(Expr::real(2.5), {}, 0), 2.5);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::stateVar(1), {7, 9}, 0), 9.0);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::time(), {}, 3.25), 3.25);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::boolean(true), {}, 0), 1.0);
}

TEST(TapeTest, ArithmeticOps)
{
    ExprPtr a = Expr::stateVar(0);
    ExprPtr b = Expr::stateVar(1);
    std::vector<double> s{6.0, 3.0};
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Add, a, b), s, 0), 9);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Sub, a, b), s, 0), 3);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Mul, a, b), s, 0), 18);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Div, a, b), s, 0), 2);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Pow, a, b), s, 0),
                     216);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::unary(UnOp::Neg, a), s, 0), -6);
}

TEST(TapeTest, ComparisonsProduceIndicators)
{
    ExprPtr a = Expr::stateVar(0);
    ExprPtr b = Expr::stateVar(1);
    std::vector<double> s{1.0, 2.0};
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Lt, a, b), s, 0), 1.0);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Ge, a, b), s, 0), 0.0);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Eq, a, a), s, 0), 1.0);
    EXPECT_DOUBLE_EQ(tapeEval(Expr::binary(BinOp::Ne, a, b), s, 0), 1.0);
}

TEST(TapeTest, LogicAndSelect)
{
    ExprPtr cond = Expr::binary(BinOp::Lt, Expr::stateVar(0),
                                Expr::stateVar(1));
    ExprPtr sel = Expr::ifThenElse(cond, Expr::real(10), Expr::real(20));
    EXPECT_DOUBLE_EQ(tapeEval(sel, {1, 2}, 0), 10.0);
    EXPECT_DOUBLE_EQ(tapeEval(sel, {2, 1}, 0), 20.0);
    ExprPtr land = Expr::binary(BinOp::And, cond,
                                Expr::boolean(true));
    EXPECT_DOUBLE_EQ(tapeEval(land, {1, 2}, 0), 1.0);
    ExprPtr lnot = Expr::unary(UnOp::Not, cond);
    EXPECT_DOUBLE_EQ(tapeEval(lnot, {1, 2}, 0), 0.0);
}

TEST(TapeTest, Builtins)
{
    ExprPtr x = Expr::stateVar(0);
    std::vector<double> s{0.5};
    EXPECT_DOUBLE_EQ(tapeEval(Expr::call("sin", {x}), s, 0),
                     std::sin(0.5));
    EXPECT_DOUBLE_EQ(tapeEval(Expr::call("sat", {x}), s, 0), 0.5);
    EXPECT_DOUBLE_EQ(
        tapeEval(Expr::call("pulse",
                            {Expr::time(), Expr::real(0),
                             Expr::real(1)}), s, 0.5),
        1.0);
    EXPECT_DOUBLE_EQ(
        tapeEval(Expr::call("max", {x, Expr::real(0.9)}), s, 0), 0.9);
}

TEST(TapeTest, MaxStateIndexTracksLoads)
{
    FusedTape t = FusedTape::compile(
        {Expr::binary(BinOp::Add, Expr::stateVar(3), Expr::stateVar(7))});
    EXPECT_EQ(t.maxStateIndex(), 7);
    FusedTape stateless = FusedTape::compile({Expr::real(1)});
    EXPECT_EQ(stateless.maxStateIndex(), -1);
}

TEST(TapeTest, RejectsUnresolvedNames)
{
    EXPECT_THROW(FusedTape::compile({Expr::var("x")}),
                 support::CompileError);
    EXPECT_THROW(FusedTape::compile({Expr::attr("s", "c")}),
                 support::CompileError);
    EXPECT_THROW(FusedTape::compile({Expr::nodeVar("n")}),
                 support::CompileError);
    EXPECT_THROW(FusedTape::compile({Expr::call("whoami", {})}),
                 support::CompileError);
}

/**
 * Property: a randomly generated closed numeric expression evaluates
 * identically through the interpreter and the tape.
 */
class RandomExprProperty : public ::testing::TestWithParam<int>
{
  protected:
    ExprPtr
    randomExpr(support::Rng &rng, int depth)
    {
        if (depth <= 0 || rng.bernoulli(0.3)) {
            switch (rng.uniformInt(0, 2)) {
              case 0:
                return Expr::real(rng.uniform(-3, 3));
              case 1:
                return Expr::stateVar(
                    static_cast<int>(rng.uniformInt(0, 3)));
              default:
                return Expr::time();
            }
        }
        switch (rng.uniformInt(0, 6)) {
          case 0:
            return Expr::binary(BinOp::Add, randomExpr(rng, depth - 1),
                                randomExpr(rng, depth - 1));
          case 1:
            return Expr::binary(BinOp::Sub, randomExpr(rng, depth - 1),
                                randomExpr(rng, depth - 1));
          case 2:
            return Expr::binary(BinOp::Mul, randomExpr(rng, depth - 1),
                                randomExpr(rng, depth - 1));
          case 3:
            return Expr::call("sin", {randomExpr(rng, depth - 1)});
          case 4:
            return Expr::call("sat", {randomExpr(rng, depth - 1)});
          case 5:
            return Expr::ifThenElse(
                Expr::binary(BinOp::Lt, randomExpr(rng, depth - 1),
                             randomExpr(rng, depth - 1)),
                randomExpr(rng, depth - 1),
                randomExpr(rng, depth - 1));
          default:
            return Expr::unary(UnOp::Neg, randomExpr(rng, depth - 1));
        }
    }
};

TEST_P(RandomExprProperty, TapeMatchesInterpreter)
{
    support::Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int trial = 0; trial < 25; ++trial) {
        ExprPtr e = randomExpr(rng, 5);
        std::vector<double> state{rng.uniform(-2, 2), rng.uniform(-2, 2),
                                  rng.uniform(-2, 2),
                                  rng.uniform(-2, 2)};
        double t = rng.uniform(0, 1);

        expr::EvalContext ctx;
        ctx.time = t;
        ctx.lookupState = [&](int i) {
            return state[static_cast<std::size_t>(i)];
        };
        double interpreted = expr::evalReal(e, ctx);
        double taped = tapeEval(e, state, t);
        EXPECT_DOUBLE_EQ(interpreted, taped) << e->str();

        // Folding must preserve semantics too.
        double folded = tapeEval(expr::fold(e), state, t);
        EXPECT_NEAR(folded, interpreted,
                    1e-12 * std::max(1.0, std::fabs(interpreted)))
            << e->str();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprProperty,
                         ::testing::Range(1, 9));

} // namespace
