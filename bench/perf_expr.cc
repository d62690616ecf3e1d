/**
 * @file
 * Ablation: the tree-walking interpreter on real ODE right-hand sides
 * (the Kuramoto coupling expression and a full TLN system RHS) versus
 * the fused whole-system tape.
 */

#include <benchmark/benchmark.h>

#include "compiler/compiler.h"
#include "expr/eval.h"
#include "expr/fold.h"
#include "expr/fusedtape.h"
#include "lang/parser.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"

namespace {

using namespace ark;

expr::ExprPtr
kuramotoTerm()
{
    using expr::Expr;
    // -1.6e9 * k * sin(q0 - q1) - 1e9 * sin(2 q0), resolved form.
    auto q0 = Expr::stateVar(0);
    auto q1 = Expr::stateVar(1);
    auto coupling = Expr::binary(
        expr::BinOp::Mul, Expr::real(-1.6e9),
        Expr::call("sin",
                   {Expr::binary(expr::BinOp::Sub, q0, q1)}));
    auto shil = Expr::binary(
        expr::BinOp::Mul, Expr::real(-1e9),
        Expr::call("sin", {Expr::binary(expr::BinOp::Mul,
                                        Expr::real(2.0), q0)}));
    return expr::fold(
        Expr::binary(expr::BinOp::Add, coupling, shil));
}

void
BM_ExprInterpreted(benchmark::State &state)
{
    expr::ExprPtr term = kuramotoTerm();
    std::vector<double> stateVec{0.3, 1.7};
    expr::EvalContext ctx;
    ctx.lookupState = [&](int i) {
        return stateVec[static_cast<std::size_t>(i)];
    };
    for (auto _ : state) {
        double v = expr::evalReal(term, ctx);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_ExprInterpreted);

void
BM_SystemRhsInterpreted(benchmark::State &state)
{
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language &tln = registry.language("tln");
    paradigms::tln::LineSpec spec;
    spec.sections = 32;
    compiler::OdeSystem system =
        compiler::compile(paradigms::tln::buildLine(tln, spec), tln);
    std::vector<double> x = system.initialState();
    std::vector<double> dx(system.size());
    for (auto _ : state) {
        system.evalRhsInterpreted(x.data(), 1e-9, dx.data());
        benchmark::DoNotOptimize(dx[0]);
    }
}
BENCHMARK(BM_SystemRhsInterpreted);

/** The paper's 32-section TLN system (the ISSUE-1 reference target). */
compiler::OdeSystem
tln32System()
{
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language &tln = registry.language("tln");
    paradigms::tln::LineSpec spec;
    spec.sections = 32;
    return compiler::compile(paradigms::tln::buildLine(tln, spec), tln);
}

void
BM_SystemRhsFused(benchmark::State &state)
{
    compiler::OdeSystem system = tln32System();
    std::vector<double> x = system.initialState();
    std::vector<double> dx(system.size());
    std::vector<double> scratch = system.makeScratch();
    for (auto _ : state) {
        system.evalRhs(x.data(), 1e-9, dx.data(), scratch);
        benchmark::DoNotOptimize(dx[0]);
    }
    state.counters["instructions"] = static_cast<double>(
        system.fusedTape().size());
    state.counters["registers"] = static_cast<double>(
        system.fusedTape().numRegs());
}
BENCHMARK(BM_SystemRhsFused);

} // namespace
