#include "expr/rewrite.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "support/logging.h"
#include "support/telemetry.h"

namespace ark::expr {

namespace {

bool
numericLiteral(const ExprPtr &e, double *out)
{
    if (e->kind() == ExprKind::Literal && e->literalValue().isNumeric()) {
        *out = e->literalValue().asReal();
        return true;
    }
    return false;
}

bool
bitEq(double x, double y)
{
    return std::bit_cast<std::uint64_t>(x) ==
           std::bit_cast<std::uint64_t>(y);
}

std::uint64_t
nodeCount(const ExprPtr &e)
{
    std::uint64_t n = 0;
    e->visit([&](const Expr &) { ++n; });
    return n;
}

struct Reassociator
{
    RewriteStats stats;

    /**
     * The exact negation of `e`, or null when no exact form exists:
     * literals and leading product coefficients flip sign bits,
     * double negations cancel. Anything that would *add* a rounding
     * (or an instruction) returns null.
     */
    ExprPtr negated(const ExprPtr &e)
    {
        double v;
        if (numericLiteral(e, &v))
            return Expr::real(-v);
        if (e->kind() == ExprKind::Unary && e->unOp() == UnOp::Neg)
            return e->operand();
        if (e->kind() == ExprKind::Binary &&
            e->binOp() == BinOp::Mul && numericLiteral(e->lhs(), &v)) {
            return Expr::binary(BinOp::Mul, Expr::real(-v), e->rhs());
        }
        return nullptr;
    }

    /**
     * Flattens a multiplicative factor into `factors`/`coeff`:
     * nested Muls recurse, numeric literals and Neg signs gather into
     * the coefficient (counted in `gathered`), everything else is an
     * opaque factor whose left-to-right order is preserved.
     */
    void collectFactors(const ExprPtr &e, std::vector<ExprPtr> &factors,
                        double &coeff, int &gathered)
    {
        if (e->kind() == ExprKind::Binary &&
            e->binOp() == BinOp::Mul) {
            collectFactors(e->lhs(), factors, coeff, gathered);
            collectFactors(e->rhs(), factors, coeff, gathered);
            return;
        }
        double v;
        if (numericLiteral(e, &v)) {
            coeff *= v;
            ++gathered;
            return;
        }
        if (e->kind() == ExprKind::Unary && e->unOp() == UnOp::Neg) {
            coeff = -coeff;
            ++gathered;
            collectFactors(e->operand(), factors, coeff, gathered);
            return;
        }
        factors.push_back(e);
    }

    /** Normalized product of two rewritten operands: one leading
     *  literal coefficient, then the opaque factors in order. */
    ExprPtr product(const ExprPtr &a, const ExprPtr &b)
    {
        std::vector<ExprPtr> factors;
        double coeff = 1.0;
        int gathered = 0;
        collectFactors(a, factors, coeff, gathered);
        collectFactors(b, factors, coeff, gathered);
        if (gathered >= 2)
            ++stats.mulConstFolds;
        if (factors.empty())
            return Expr::real(coeff);
        ExprPtr chain = bitEq(coeff, 1.0)
                            ? factors.front()
                            : Expr::binary(BinOp::Mul,
                                           Expr::real(coeff),
                                           factors.front());
        for (std::size_t i = 1; i < factors.size(); ++i)
            chain = Expr::binary(BinOp::Mul, chain, factors[i]);
        return chain;
    }

    ExprPtr run(const ExprPtr &e)
    {
        switch (e->kind()) {
          case ExprKind::Literal:
          case ExprKind::Var:
          case ExprKind::Attr:
          case ExprKind::Time:
          case ExprKind::NodeVar:
          case ExprKind::StateVar:
          case ExprKind::Param:
            return e;
          case ExprKind::Unary: {
            // Boolean subtrees are untouched: a rounding change under
            // a Not could flip the branch it guards.
            if (e->unOp() == UnOp::Not)
                return e;
            ExprPtr a = run(e->operand());
            if (ExprPtr na = negated(a)) {
                ++stats.negFolds;
                return na;
            }
            return Expr::unary(UnOp::Neg, a);
          }
          case ExprKind::Binary: {
            BinOp op = e->binOp();
            // Comparison operands decide branches; And/Or chain
            // comparisons. Rounding must not move there.
            if (isComparison(op) || isLogical(op))
                return e;
            ExprPtr a = run(e->lhs());
            ExprPtr b = run(e->rhs());
            switch (op) {
              case BinOp::Mul:
                return product(a, b);
              case BinOp::Div: {
                double c;
                if (numericLiteral(b, &c) && c != 0.0 &&
                    std::isfinite(c) && std::isfinite(1.0 / c)) {
                    ++stats.divReciprocals;
                    return product(a, Expr::real(1.0 / c));
                }
                return Expr::binary(BinOp::Div, a, b);
              }
              case BinOp::Sub: {
                if (ExprPtr nb = negated(b)) {
                    ++stats.subToAdd;
                    return Expr::binary(BinOp::Add, a, nb);
                }
                return Expr::binary(BinOp::Sub, a, b);
              }
              default:
                // Add keeps its operand order (sums are never
                // reordered); Pow just recurses.
                return Expr::binary(op, a, b);
            }
          }
          case ExprKind::Call: {
            bool changed = false;
            std::vector<ExprPtr> args;
            args.reserve(e->args().size());
            for (const auto &arg : e->args()) {
                ExprPtr na = run(arg);
                changed |= (na != arg);
                args.push_back(na);
            }
            if (!changed)
                return e;
            if (e->calleeExpr())
                return Expr::callExpr(e->calleeExpr(), std::move(args));
            return Expr::call(e->callee(), std::move(args));
          }
          case ExprKind::If: {
            // Condition untouched (branch selection must not move);
            // branches are value positions.
            ExprPtr a = run(e->thenBranch());
            ExprPtr b = run(e->elseBranch());
            if (a == e->thenBranch() && b == e->elseBranch())
                return e;
            return Expr::ifThenElse(e->cond(), a, b);
          }
        }
        return e;
    }
};

} // namespace

ExprPtr
reassociate(const ExprPtr &e, RewriteStats *stats)
{
    Reassociator r;
    r.stats.nodesBefore = nodeCount(e);
    ExprPtr out = r.run(e);
    r.stats.nodesAfter = nodeCount(out);
    if (stats != nullptr) {
        stats->divReciprocals += r.stats.divReciprocals;
        stats->mulConstFolds += r.stats.mulConstFolds;
        stats->negFolds += r.stats.negFolds;
        stats->subToAdd += r.stats.subToAdd;
        stats->nodesBefore += r.stats.nodesBefore;
        stats->nodesAfter += r.stats.nodesAfter;
    }
    return out;
}

std::vector<ExprPtr>
reassociate(const std::vector<ExprPtr> &outputs, RewriteStats *stats)
{
    static telemetry::Counter &opsRemoved =
        telemetry::Registry::shared().counter(
            "ark.compile.rewrite_ops_removed");
    RewriteStats local;
    std::vector<ExprPtr> out;
    out.reserve(outputs.size());
    for (const ExprPtr &e : outputs)
        out.push_back(reassociate(e, &local));
    if (local.nodesAfter < local.nodesBefore)
        opsRemoved.add(local.nodesBefore - local.nodesAfter);
    if (stats != nullptr) {
        stats->divReciprocals += local.divReciprocals;
        stats->mulConstFolds += local.mulConstFolds;
        stats->negFolds += local.negFolds;
        stats->subToAdd += local.subToAdd;
        stats->nodesBefore += local.nodesBefore;
        stats->nodesAfter += local.nodesAfter;
    }
    return out;
}

RoundingMode
roundingMode(RoundingMode option)
{
    // Memoized like jitEnabled: the CI job that forces a mode sets the
    // variable before launch, and the warning fires once per process.
    static const std::optional<RoundingMode> forced =
        []() -> std::optional<RoundingMode> {
        const char *env = std::getenv("ARK_ROUNDING");
        if (env == nullptr)
            return std::nullopt;
        const std::string v(env);
        if (v == "exact")
            return RoundingMode::Exact;
        if (v == "fma")
            return RoundingMode::Fma;
        if (v == "reassoc")
            return RoundingMode::Reassoc;
        support::warn(support::cat("ignoring ARK_ROUNDING='", v,
                                   "': expected exact, fma or reassoc"));
        return std::nullopt;
    }();
    return forced.value_or(option);
}

} // namespace ark::expr
