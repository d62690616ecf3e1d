#ifndef ARK_EXPR_FOLD_H
#define ARK_EXPR_FOLD_H

/**
 * @file
 * Constant folding and algebraic simplification — the *exact,
 * always-on* stage of the rewrite contract (see expr/expr.h):
 * every rule here preserves IEEE values bit-for-bit (modulo the
 * documented x+0 sign-of-zero caveat), so the compiler applies them
 * on every lowering. Rounding-changing rewrites live in
 * expr/rewrite.h behind an explicit opt-in.
 *
 * Run after production-rule rewriting substitutes attribute values, so
 * the ODE right-hand sides handed to the simulator are as small as
 * possible. Simplifications use field identities (x*0 == 0, x+0 == x);
 * like most compilers we accept that this discards NaN propagation
 * from eliminated subtrees.
 *
 * Two entry styles:
 *
 *  - fold(e): whole-tree bottom-up pass (idempotent);
 *  - foldUnaryOf/foldBinaryOf/foldCallOf/foldIfOf: single-step
 *    constructors for callers that already hold folded children and
 *    want the folded parent without a second walk (the compiler's
 *    one-pass instantiate). fold(e) is exactly the bottom-up
 *    composition of these steps, so both styles produce the same
 *    (interned, hence pointer-identical) result.
 */

#include <string>
#include <vector>

#include "expr/expr.h"

namespace ark::expr {

/**
 * Returns an equivalent, simplified expression. Idempotent; shares
 * unchanged subtrees with the input.
 */
ExprPtr fold(const ExprPtr &e);

/** @name Single-step folding constructors.
 * Each builds the folded node for an operator applied to
 * already-folded children: literal children evaluate, the local
 * identities apply, and otherwise the plain node is built. Children
 * are NOT folded recursively — pass folded subtrees.
 */
/// @{

/** Folded `op a`. */
ExprPtr foldUnaryOf(UnOp op, const ExprPtr &a);

/** Folded `a op b`. */
ExprPtr foldBinaryOf(BinOp op, const ExprPtr &a, const ExprPtr &b);

/**
 * Folded builtin call `callee(args...)`: evaluates when every
 * argument is literal and the callee is a known builtin; otherwise
 * builds the call node. (Lambda-callee calls are inlined by the
 * compiler before folding and have no step constructor.)
 */
ExprPtr foldCallOf(const std::string &callee, std::vector<ExprPtr> args);

/** Folded `if c then a else b`: literal conditions pick a branch. */
ExprPtr foldIfOf(const ExprPtr &c, const ExprPtr &a, const ExprPtr &b);

/// @}

/**
 * Replaces every Param(i) leaf of `templates` by the real literal
 * params[i] and folds bottom-up with the constructors above (one walk,
 * memoized across the shared subtrees). For a compiler template this
 * yields the trees the value-specialised lowering builds.
 */
std::vector<ExprPtr> bindParams(const std::vector<ExprPtr> &templates,
                                const std::vector<double> &params);

/** True if the expression is a literal with the given real value. */
bool isRealLiteral(const ExprPtr &e, double v);

} // namespace ark::expr

#endif // ARK_EXPR_FOLD_H
