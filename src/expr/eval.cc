#include "expr/eval.h"

#include <cmath>

#include "expr/builtins.h"
#include "support/error.h"
#include "support/logging.h"

namespace ark::expr {

using support::cat;
using support::TypeError;

namespace {

Value
evalBinary(BinOp op, const Value &lhs, const Value &rhs)
{
    if (isLogical(op)) {
        bool a = lhs.asBool();
        bool b = rhs.asBool();
        return Value::boolean(op == BinOp::And ? (a && b) : (a || b));
    }
    if (isComparison(op)) {
        double a = lhs.asReal();
        double b = rhs.asReal();
        switch (op) {
          case BinOp::Lt: return Value::boolean(a < b);
          case BinOp::Le: return Value::boolean(a <= b);
          case BinOp::Gt: return Value::boolean(a > b);
          case BinOp::Ge: return Value::boolean(a >= b);
          case BinOp::Eq: return Value::boolean(a == b);
          case BinOp::Ne: return Value::boolean(a != b);
          default: break;
        }
    }
    // Arithmetic: stay integral only when both sides are Int.
    if (lhs.isInt() && rhs.isInt() && op != BinOp::Div) {
        std::int64_t a = lhs.asInt();
        std::int64_t b = rhs.asInt();
        switch (op) {
          case BinOp::Add: return Value::integer(a + b);
          case BinOp::Sub: return Value::integer(a - b);
          case BinOp::Mul: return Value::integer(a * b);
          case BinOp::Pow:
            return Value::real(std::pow(static_cast<double>(a),
                                        static_cast<double>(b)));
          default: break;
        }
    }
    double a = lhs.asReal();
    double b = rhs.asReal();
    switch (op) {
      case BinOp::Add: return Value::real(a + b);
      case BinOp::Sub: return Value::real(a - b);
      case BinOp::Mul: return Value::real(a * b);
      case BinOp::Div: return Value::real(a / b);
      case BinOp::Pow: return Value::real(std::pow(a, b));
      default: break;
    }
    throw TypeError(cat("unsupported binary operator ", binOpName(op)));
}

} // namespace

Value
eval(const ExprPtr &e, const EvalContext &ctx)
{
    switch (e->kind()) {
      case ExprKind::Literal:
        return e->literalValue();
      case ExprKind::Var: {
        if (ctx.lookupVar) {
            if (auto v = ctx.lookupVar(e->varName()))
                return *v;
        }
        throw TypeError(cat("unbound variable '", e->varName(), "'"));
      }
      case ExprKind::Attr: {
        if (ctx.lookupAttr) {
            if (auto v = ctx.lookupAttr(e->attrBase(), e->attrName()))
                return *v;
        }
        throw TypeError(cat("unbound attribute '", e->attrBase(), ".",
                            e->attrName(), "'"));
      }
      case ExprKind::Time:
        return Value::real(ctx.time);
      case ExprKind::Unary: {
        Value v = eval(e->operand(), ctx);
        if (e->unOp() == UnOp::Not)
            return Value::boolean(!v.asBool());
        if (v.isInt())
            return Value::integer(-v.asInt());
        return Value::real(-v.asReal());
      }
      case ExprKind::Binary:
        return evalBinary(e->binOp(), eval(e->lhs(), ctx),
                          eval(e->rhs(), ctx));
      case ExprKind::Call: {
        // Lambda-valued callee (variable or attribute holding lambd).
        if (e->calleeExpr()) {
            Value callee = eval(e->calleeExpr(), ctx);
            const Lambda &fn = callee.asFunction();
            std::vector<ExprPtr> argExprs;
            argExprs.reserve(e->args().size());
            for (const auto &arg : e->args())
                argExprs.push_back(Expr::literal(eval(arg, ctx)));
            return eval(applyLambda(fn, argExprs), ctx);
        }
        // A named callee may still be a lambda-valued variable.
        if (ctx.lookupVar) {
            if (auto v = ctx.lookupVar(e->callee());
                v && v->isFunction()) {
                std::vector<ExprPtr> argExprs;
                argExprs.reserve(e->args().size());
                for (const auto &arg : e->args())
                    argExprs.push_back(Expr::literal(eval(arg, ctx)));
                return eval(applyLambda(v->asFunction(), argExprs), ctx);
            }
        }
        const BuiltinInfo *info = findBuiltin(e->callee());
        if (!info)
            throw TypeError(cat("unknown function '", e->callee(), "'"));
        if (static_cast<int>(e->args().size()) != info->arity) {
            throw TypeError(cat("function '", e->callee(), "' expects ",
                                info->arity, " argument(s), got ",
                                e->args().size()));
        }
        double argv[4] = {0, 0, 0, 0};
        for (std::size_t i = 0; i < e->args().size(); ++i)
            argv[i] = evalReal(e->args()[i], ctx);
        return Value::real(evalBuiltin(info->id, argv, info->arity));
      }
      case ExprKind::If:
        return evalBool(e->cond(), ctx) ? eval(e->thenBranch(), ctx)
                                        : eval(e->elseBranch(), ctx);
      case ExprKind::NodeVar: {
        if (ctx.lookupNodeVar) {
            if (auto v = ctx.lookupNodeVar(e->nodeName()))
                return Value::real(*v);
        }
        throw TypeError(cat("unresolved node variable var(", e->nodeName(),
                            ")"));
      }
      case ExprKind::StateVar: {
        if (ctx.lookupState)
            return Value::real(ctx.lookupState(e->stateIndex()));
        throw TypeError("state variable reference without state context");
      }
      case ExprKind::Param: {
        if (ctx.lookupParam)
            return Value::real(ctx.lookupParam(e->paramIndex()));
        throw TypeError("parameter reference without parameter context");
      }
    }
    throw TypeError("unreachable expression kind");
}

double
evalReal(const ExprPtr &e, const EvalContext &ctx)
{
    return eval(e, ctx).asReal();
}

bool
evalBool(const ExprPtr &e, const EvalContext &ctx)
{
    return eval(e, ctx).asBool();
}

const char *
staticTypeName(StaticType t)
{
    switch (t) {
      case StaticType::Real: return "real";
      case StaticType::Int: return "int";
      case StaticType::Bool: return "bool";
      case StaticType::Function: return "lambd";
    }
    return "?";
}

namespace {

StaticType
requireNumeric(StaticType t, const char *where)
{
    if (t != StaticType::Real && t != StaticType::Int) {
        throw TypeError(cat(where, " requires a numeric operand, got ",
                            staticTypeName(t)));
    }
    return t;
}

} // namespace

StaticType
checkType(const ExprPtr &e, const TypeScope &scope)
{
    switch (e->kind()) {
      case ExprKind::Literal:
        switch (e->literalValue().kind()) {
          case ValueKind::Real: return StaticType::Real;
          case ValueKind::Int: return StaticType::Int;
          case ValueKind::Bool: return StaticType::Bool;
          case ValueKind::Function: return StaticType::Function;
        }
        return StaticType::Real;
      case ExprKind::Var: {
        if (scope.varType) {
            if (auto t = scope.varType(e->varName()))
                return *t;
        }
        throw TypeError(cat("variable '", e->varName(),
                            "' is not in scope"));
      }
      case ExprKind::Attr: {
        if (scope.attrType) {
            if (auto t = scope.attrType(e->attrBase(), e->attrName()))
                return *t;
        }
        throw TypeError(cat("attribute '", e->attrBase(), ".",
                            e->attrName(), "' is not in scope"));
      }
      case ExprKind::Time:
        return StaticType::Real;
      case ExprKind::Unary: {
        StaticType t = checkType(e->operand(), scope);
        if (e->unOp() == UnOp::Not) {
            if (t != StaticType::Bool) {
                throw TypeError(cat("'not' requires a bool operand, got ",
                                    staticTypeName(t)));
            }
            return StaticType::Bool;
        }
        return requireNumeric(t, "negation");
      }
      case ExprKind::Binary: {
        StaticType a = checkType(e->lhs(), scope);
        StaticType b = checkType(e->rhs(), scope);
        BinOp op = e->binOp();
        if (isLogical(op)) {
            if (a != StaticType::Bool || b != StaticType::Bool) {
                throw TypeError(cat("'", binOpName(op),
                                    "' requires bool operands"));
            }
            return StaticType::Bool;
        }
        requireNumeric(a, binOpName(op));
        requireNumeric(b, binOpName(op));
        if (isComparison(op))
            return StaticType::Bool;
        if (op == BinOp::Div || op == BinOp::Pow)
            return StaticType::Real;
        return (a == StaticType::Int && b == StaticType::Int)
                   ? StaticType::Int
                   : StaticType::Real;
      }
      case ExprKind::Call: {
        int expected = -1;
        if (e->calleeExpr()) {
            const Expr &callee = *e->calleeExpr();
            if (callee.kind() == ExprKind::Attr && scope.lambdaArity) {
                if (auto n = scope.lambdaArity(callee.attrBase(),
                                               callee.attrName())) {
                    expected = *n;
                }
            } else if (callee.kind() == ExprKind::Var &&
                       scope.lambdaArity) {
                if (auto n = scope.lambdaArity(callee.varName(), ""))
                    expected = *n;
            }
            if (expected < 0) {
                StaticType t = checkType(e->calleeExpr(), scope);
                if (t != StaticType::Function) {
                    throw TypeError(cat("call target is not a lambd (",
                                        staticTypeName(t), ")"));
                }
            }
        } else {
            const BuiltinInfo *info = findBuiltin(e->callee());
            if (info) {
                expected = info->arity;
            } else if (scope.lambdaArity) {
                if (auto n = scope.lambdaArity(e->callee(), ""))
                    expected = *n;
            }
            if (expected < 0) {
                throw TypeError(cat("unknown function '", e->callee(),
                                    "'"));
            }
        }
        if (expected >= 0 &&
            static_cast<int>(e->args().size()) != expected) {
            throw TypeError(cat("call expects ", expected,
                                " argument(s), got ", e->args().size()));
        }
        for (const auto &arg : e->args())
            requireNumeric(checkType(arg, scope), "function argument");
        return StaticType::Real;
      }
      case ExprKind::If: {
        StaticType c = checkType(e->cond(), scope);
        if (c != StaticType::Bool)
            throw TypeError("if condition must be bool");
        StaticType a = checkType(e->thenBranch(), scope);
        StaticType b = checkType(e->elseBranch(), scope);
        if (a == b)
            return a;
        bool numeric = (a == StaticType::Real || a == StaticType::Int) &&
                       (b == StaticType::Real || b == StaticType::Int);
        if (numeric)
            return StaticType::Real;
        throw TypeError(cat("if branches have incompatible types ",
                            staticTypeName(a), " and ",
                            staticTypeName(b)));
      }
      case ExprKind::NodeVar: {
        if (scope.nodeVarOk && !scope.nodeVarOk(e->nodeName())) {
            throw TypeError(cat("var(", e->nodeName(),
                                ") references an unknown node"));
        }
        return StaticType::Real;
      }
      case ExprKind::StateVar:
      case ExprKind::Param:
        return StaticType::Real;
    }
    throw TypeError("unreachable expression kind");
}

} // namespace ark::expr
