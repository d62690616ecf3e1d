#ifndef ARK_EXPR_EVAL_H
#define ARK_EXPR_EVAL_H

/**
 * @file
 * Tree-walking interpreter and type checker for Ark expressions.
 *
 * The interpreter serves semantic analysis (constant attribute
 * evaluation, set-switch conditions) and acts as the reference
 * implementation the compiled tapes are tested against. Hot loops
 * compile their expressions to an expr::FusedTape instead.
 */

#include <functional>
#include <optional>
#include <string>

#include "expr/expr.h"
#include "expr/value.h"

namespace ark::expr {

/**
 * Name-resolution hooks for evaluation. Unset hooks make the
 * corresponding reference an evaluation error.
 */
struct EvalContext
{
    /** Current simulation time (value of `time`). */
    double time = 0.0;

    /** Resolves a free variable to a value. */
    std::function<std::optional<Value>(const std::string &)> lookupVar;

    /** Resolves base.attr to a value. */
    std::function<std::optional<Value>(const std::string &,
                                       const std::string &)> lookupAttr;

    /** Resolves var(node) to the node's current state value. */
    std::function<std::optional<double>(const std::string &)> lookupNodeVar;

    /** Resolves a StateVar slot (post-compilation trees). */
    std::function<double(int)> lookupState;

    /** Resolves a Param slot (compiler template trees). */
    std::function<double(int)> lookupParam;
};

/**
 * Evaluates an expression to a Value.
 * @throws ark::support::TypeError on unresolvable names, arity or
 *         operand-kind mismatches.
 */
Value eval(const ExprPtr &e, const EvalContext &ctx);

/** Evaluates and coerces to real. */
double evalReal(const ExprPtr &e, const EvalContext &ctx);

/** Evaluates and requires a boolean. */
bool evalBool(const ExprPtr &e, const EvalContext &ctx);

/** Static type of an expression (see checkType). */
enum class StaticType { Real, Int, Bool, Function };

/** Type name for diagnostics. */
const char *staticTypeName(StaticType t);

/**
 * Name-resolution hooks for static checking. Returning nullopt marks
 * the name unknown, which is a TypeError.
 */
struct TypeScope
{
    std::function<std::optional<StaticType>(const std::string &)> varType;
    std::function<std::optional<StaticType>(const std::string &,
                                            const std::string &)> attrType;
    /** Arity of a lambda-typed variable/attribute, for call checking. */
    std::function<std::optional<int>(const std::string &,
                                     const std::string &)> lambdaArity;
    /** True if var(name) is legal in this scope. */
    std::function<bool(const std::string &)> nodeVarOk;
};

/**
 * Checks an expression and returns its static type.
 *
 * Rules: arithmetic needs numeric operands (Int only when both are
 * Int); comparisons need numerics and yield Bool; and/or/not need
 * Bool; if-then-else needs a Bool condition and unifiable branches
 * (Int unifies with Real to Real); calls check builtin or lambda
 * arity; var(n) and StateVar are Real; `time` is Real.
 *
 * @throws ark::support::TypeError describing the first violation.
 */
StaticType checkType(const ExprPtr &e, const TypeScope &scope);

} // namespace ark::expr

#endif // ARK_EXPR_EVAL_H
