#include "expr/fold.h"

#include <cmath>
#include <functional>
#include <unordered_map>

#include "expr/builtins.h"
#include "expr/eval.h"
#include "support/error.h"

namespace ark::expr {

bool
isRealLiteral(const ExprPtr &e, double v)
{
    return e->kind() == ExprKind::Literal &&
           e->literalValue().isNumeric() &&
           e->literalValue().asReal() == v;
}

namespace {

bool
isLiteral(const ExprPtr &e)
{
    return e->kind() == ExprKind::Literal;
}

/** Evaluates a closed expression (all children literal). */
ExprPtr
evalClosed(const ExprPtr &e)
{
    EvalContext ctx; // no name hooks: only closed expressions succeed
    return Expr::literal(eval(e, ctx));
}

} // namespace

ExprPtr
foldUnaryOf(UnOp op, const ExprPtr &a)
{
    if (isLiteral(a))
        return evalClosed(Expr::unary(op, a));
    // -(-x) == x
    if (op == UnOp::Neg && a->kind() == ExprKind::Unary &&
        a->unOp() == UnOp::Neg) {
        return a->operand();
    }
    return Expr::unary(op, a);
}

ExprPtr
foldBinaryOf(BinOp op, const ExprPtr &a, const ExprPtr &b)
{
    if (isLiteral(a) && isLiteral(b))
        return evalClosed(Expr::binary(op, a, b));

    switch (op) {
      case BinOp::Add:
        if (isRealLiteral(a, 0.0))
            return b;
        if (isRealLiteral(b, 0.0))
            return a;
        break;
      case BinOp::Sub:
        if (isRealLiteral(b, 0.0))
            return a;
        if (isRealLiteral(a, 0.0))
            return foldUnaryOf(UnOp::Neg, b);
        break;
      case BinOp::Mul:
        if (isRealLiteral(a, 0.0) || isRealLiteral(b, 0.0))
            return Expr::real(0.0);
        if (isRealLiteral(a, 1.0))
            return b;
        if (isRealLiteral(b, 1.0))
            return a;
        if (isRealLiteral(a, -1.0))
            return foldUnaryOf(UnOp::Neg, b);
        if (isRealLiteral(b, -1.0))
            return foldUnaryOf(UnOp::Neg, a);
        break;
      case BinOp::Div:
        if (isRealLiteral(a, 0.0))
            return Expr::real(0.0);
        if (isRealLiteral(b, 1.0))
            return a;
        break;
      case BinOp::Pow:
        if (isRealLiteral(b, 1.0))
            return a;
        if (isRealLiteral(b, 0.0))
            return Expr::real(1.0);
        break;
      case BinOp::And:
        if (isLiteral(a))
            return a->literalValue().asBool() ? b : Expr::boolean(false);
        if (isLiteral(b))
            return b->literalValue().asBool() ? a : Expr::boolean(false);
        break;
      case BinOp::Or:
        if (isLiteral(a))
            return a->literalValue().asBool() ? Expr::boolean(true) : b;
        if (isLiteral(b))
            return b->literalValue().asBool() ? Expr::boolean(true) : a;
        break;
      default:
        break;
    }
    return Expr::binary(op, a, b);
}

ExprPtr
foldCallOf(const std::string &callee, std::vector<ExprPtr> args)
{
    bool allLit = true;
    for (const auto &arg : args)
        allLit &= isLiteral(arg);
    // Only named builtins fold; lambda-callee calls are inlined earlier
    // by the compiler, and unknown names must keep failing at eval time.
    if (allLit && findBuiltin(callee))
        return evalClosed(Expr::call(callee, std::move(args)));
    return Expr::call(callee, std::move(args));
}

ExprPtr
foldIfOf(const ExprPtr &c, const ExprPtr &a, const ExprPtr &b)
{
    if (isLiteral(c))
        return c->literalValue().asBool() ? a : b;
    return Expr::ifThenElse(c, a, b);
}

ExprPtr
fold(const ExprPtr &e)
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
      case ExprKind::Unary:
        return foldUnaryOf(e->unOp(), fold(e->operand()));
      case ExprKind::Binary:
        return foldBinaryOf(e->binOp(), fold(e->lhs()), fold(e->rhs()));
      case ExprKind::Call: {
        std::vector<ExprPtr> args;
        args.reserve(e->args().size());
        for (const auto &arg : e->args())
            args.push_back(fold(arg));
        // Lambda-callee calls just fold their arguments.
        if (e->calleeExpr())
            return Expr::callExpr(e->calleeExpr(), std::move(args));
        return foldCallOf(e->callee(), std::move(args));
      }
      case ExprKind::If: {
        ExprPtr c = fold(e->cond());
        // Literal conditions prune: only the taken branch is folded.
        if (c->kind() == ExprKind::Literal) {
            return c->literalValue().asBool() ? fold(e->thenBranch())
                                              : fold(e->elseBranch());
        }
        return foldIfOf(c, fold(e->thenBranch()),
                        fold(e->elseBranch()));
      }
    }
    return e;
}

std::vector<ExprPtr>
bindParams(const std::vector<ExprPtr> &templates,
           const std::vector<double> &params)
{
    std::unordered_map<const Expr *, ExprPtr> memo;
    std::function<ExprPtr(const ExprPtr &)> walk =
        [&](const ExprPtr &e) -> ExprPtr {
        switch (e->kind()) {
          case ExprKind::Param:
            return Expr::real(
                params.at(static_cast<std::size_t>(e->paramIndex())));
          case ExprKind::Literal:
          case ExprKind::Var:
          case ExprKind::Attr:
          case ExprKind::Time:
          case ExprKind::NodeVar:
          case ExprKind::StateVar:
            return e;
          default:
            break;
        }
        if (auto it = memo.find(e.get()); it != memo.end())
            return it->second;
        ExprPtr out;
        switch (e->kind()) {
          case ExprKind::Unary:
            out = foldUnaryOf(e->unOp(), walk(e->operand()));
            break;
          case ExprKind::Binary: {
            ExprPtr a = walk(e->lhs());
            out = foldBinaryOf(e->binOp(), a, walk(e->rhs()));
            break;
          }
          case ExprKind::If: {
            ExprPtr c = walk(e->cond());
            ExprPtr a = walk(e->thenBranch());
            out = foldIfOf(c, a, walk(e->elseBranch()));
            break;
          }
          default: {
            std::vector<ExprPtr> args;
            args.reserve(e->args().size());
            for (const ExprPtr &arg : e->args())
                args.push_back(walk(arg));
            out = e->calleeExpr()
                      ? Expr::callExpr(e->calleeExpr(), std::move(args))
                      : foldCallOf(e->callee(), std::move(args));
            break;
          }
        }
        memo.emplace(e.get(), out);
        return out;
    };
    std::vector<ExprPtr> out;
    out.reserve(templates.size());
    for (const ExprPtr &e : templates)
        out.push_back(walk(e));
    return out;
}

} // namespace ark::expr
