#include "compiler/odesystem.h"

#include <sstream>

#include "expr/eval.h"
#include "expr/fold.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/telemetry.h"

namespace ark::compiler {

using support::cat;
using support::CompileError;

namespace {

/** Lock-free fetch_max for the scratch high-water mark. */
void
raiseScratch(std::atomic<std::size_t> &scratch, std::size_t want)
{
    std::size_t cur = scratch.load(std::memory_order_relaxed);
    while (cur < want &&
           !scratch.compare_exchange_weak(cur, want,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
}

} // namespace

std::string
StateVar::label() const
{
    std::string out = node;
    for (int i = 0; i < derivative; ++i)
        out += "'";
    return out;
}

expr::FusedTape
compileRhsTape(const std::vector<expr::ExprPtr> &rhs,
               const std::vector<expr::ExprPtr> &slots)
{
    static telemetry::Histogram &tapesNs =
        telemetry::Registry::shared().histogram("ark.compile.tapes_ns");
    static telemetry::Counter &tapeOps =
        telemetry::Registry::shared().counter("ark.compile.tape_ops");
    static telemetry::Counter &tapeRegs =
        telemetry::Registry::shared().counter("ark.compile.tape_regs");
    telemetry::ScopedSpan span("ark.compile.tapes", rhs.size());
    telemetry::ScopedTimer timer(tapesNs);
    expr::FusedTape tape = expr::FusedTape::compile(rhs, false, slots);
    tapeOps.add(tape.size());
    tapeRegs.add(static_cast<std::uint64_t>(tape.numRegs()));
    return tape;
}

OdeSystem::OdeSystem(std::vector<StateVar> vars,
                     std::vector<double> initial,
                     std::vector<expr::ExprPtr> rhs)
    : vars_(std::move(vars)), initial_(std::move(initial)),
      rhs_(std::move(rhs)), lazy_(std::make_unique<LazyTapes>())
{
    support::panicIf(vars_.size() != initial_.size() ||
                     vars_.size() != rhs_.size(),
                     "OdeSystem: inconsistent component sizes");
    fused_ = compileRhsTape(rhs_);
    lazy_->scratch.store(static_cast<std::size_t>(fused_.numRegs()),
                         std::memory_order_release);
}

OdeSystem::OdeSystem(
    std::vector<StateVar> vars, std::vector<double> initial,
    expr::FusedTape tape,
    std::shared_ptr<const std::vector<expr::ExprPtr>> templateRhs,
    std::vector<double> params)
    : vars_(std::move(vars)), initial_(std::move(initial)),
      fused_(std::move(tape)), templateRhs_(std::move(templateRhs)),
      params_(std::move(params)), lazy_(std::make_unique<LazyTapes>())
{
    support::panicIf(templateRhs_ == nullptr ||
                         vars_.size() != initial_.size() ||
                         vars_.size() != templateRhs_->size() ||
                         vars_.size() != fused_.numOutputs(),
                     "OdeSystem: inconsistent component sizes");
    lazy_->scratch.store(static_cast<std::size_t>(fused_.numRegs()),
                         std::memory_order_release);
}

OdeSystem::OdeSystem(const OdeSystem &other)
    : vars_(other.vars_), initial_(other.initial_),
      rhs_(other.templateRhs_ ? std::vector<expr::ExprPtr>{} : other.rhs_),
      fused_(other.fused_), templateRhs_(other.templateRhs_),
      params_(other.params_), lazy_(std::make_unique<LazyTapes>())
{
    lazy_->scratch.store(static_cast<std::size_t>(fused_.numRegs()),
                         std::memory_order_release);
}

const std::vector<expr::ExprPtr> &
OdeSystem::rhsExprs() const
{
    if (templateRhs_) {
        std::call_once(lazy_->rhsOnce, [this] {
            rhs_ = expr::bindParams(*templateRhs_, params_);
        });
    }
    return rhs_;
}

OdeSystem &
OdeSystem::operator=(const OdeSystem &other)
{
    if (this != &other)
        *this = OdeSystem(other);
    return *this;
}

int
OdeSystem::stateIndex(const std::string &node, int derivative) const
{
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        if (vars_[i].node == node && vars_[i].derivative == derivative)
            return static_cast<int>(i);
    }
    throw CompileError(cat("no state variable for node '", node,
                           "' derivative ", derivative));
}

const expr::FusedTape &
OdeSystem::rhsTape(expr::RoundingMode mode) const
{
    if (mode == expr::RoundingMode::Exact)
        return fused_;
    LazyTapes::Variant &variant =
        lazy_->variants[static_cast<std::size_t>(mode) - 1];
    std::call_once(variant.once, [&] {
        const bool reassoc = mode == expr::RoundingMode::Reassoc;
        std::vector<expr::ExprPtr> rewritten;
        if (reassoc)
            rewritten = expr::reassociate(rhsExprs(), &lazy_->reassocStats);
        variant.tape = expr::FusedTape::compile(
            reassoc ? rewritten : rhsExprs(), /*fuseMulAdd=*/true);
        raiseScratch(lazy_->scratch,
                     static_cast<std::size_t>(variant.tape.numRegs()));
    });
    return variant.tape;
}

const expr::RewriteStats &
OdeSystem::reassocStats() const
{
    rhsTape(expr::RoundingMode::Reassoc);
    return lazy_->reassocStats;
}

void
OdeSystem::evalRhs(const double *state, double t, double *dstate,
                   std::vector<double> &scratch) const
{
    if (scratch.size() < scratchSize())
        scratch.resize(scratchSize());
    fused_.evalInto(state, t, dstate, scratch.data());
}

void
OdeSystem::evalRhsInterpreted(const double *state, double t,
                              double *dstate) const
{
    expr::EvalContext ctx;
    ctx.time = t;
    ctx.lookupState = [state](int index) { return state[index]; };
    const std::vector<expr::ExprPtr> &rhs = rhsExprs();
    for (std::size_t i = 0; i < rhs.size(); ++i)
        dstate[i] = expr::evalReal(rhs[i], ctx);
}

std::string
OdeSystem::equationsStr() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        oss << "d " << vars_[i].label() << "/dt = " << rhsExprs()[i]->str()
            << "\n";
    }
    return oss.str();
}

} // namespace ark::compiler
