#ifndef ARK_EXPR_REWRITE_H
#define ARK_EXPR_REWRITE_H

/**
 * @file
 * Opt-in reassociation/distribution rewrites — the *rounding-changing*
 * stage of the rewrite contract (see expr/expr.h). Everything here
 * changes where IEEE roundings happen (never the real-arithmetic
 * value), so the pass runs only under RoundingMode::Reassoc
 * (sim::SimOptions::rounding or the ARK_ROUNDING override) — the same
 * tolerance-level contract as RoundingMode::Fma, and in fact in
 * service of it: the point of the pass is to expose FusedMulAdd
 * contractions that the single-use Mul→Add matcher cannot see through
 * intervening Div/Neg nodes.
 *
 * Rules (bottom-up, arithmetic value positions only):
 *
 *  - `x / c` (literal c) → `x * (1/c)` when both c and 1/c are finite
 *    and nonzero — division by a constant becomes a multiplicative
 *    factor that can join a product chain;
 *  - multiplicative chains flatten: literal factors and Neg signs
 *    gather into one leading coefficient (`(k1*x)*k2` → `(k1*k2)*x`),
 *    non-literal factor order preserved;
 *  - `-(k*x)` → `(-k)*x` and `a - k*x` → `a + (-k)*x` (exact sign
 *    flips on the literal) so subtracted products still contract.
 *
 * Sum chains are never reordered — each Add keeps its operand order,
 * so an n-term sum of products lowers to n-1 FusedMulAdds plus one
 * Mul without changing summation order. Subtrees under comparisons,
 * And/Or/Not, and If *conditions* are left untouched: a rounding
 * change there could flip a branch, which is a discontinuous (not
 * tolerance-level) result change. If *branches* are value positions
 * and are rewritten.
 *
 * GmC-TLN is the motivating case: its rules have the shape
 * `(w * var(t)) / c`, which contracts 0% today because the Div sits
 * between product and sum; under this pass every such term becomes
 * `(w/c) * var(t)` feeding its Add directly.
 */

#include <cstdint>
#include <vector>

#include "expr/expr.h"

namespace ark::expr {

/**
 * Which RHS program a simulation integrates. Each mode is one
 * program of the compiled system (compiler::OdeSystem::rhsTape):
 *
 *  - Exact: the default fused tape, one IEEE rounding per arithmetic
 *    step, bit-identical to the tree interpreter;
 *  - Fma: the same tape with single-use Mul+Add pairs contracted into
 *    FusedMulAdd (one std::fma rounding per pair);
 *  - Reassoc: reassociate() over the RHS, then FMA contraction.
 *
 * Fma and Reassoc agree with Exact to tolerance, not bitwise (the
 * expr/expr.h rewrite contract); every tier honors the mode
 * identically, so lane-vs-scalar bit identity holds under each.
 */
enum class RoundingMode : std::uint8_t { Exact, Fma, Reassoc };

/** What reassociate() changed (arkc --ir-stats, tests). */
struct RewriteStats
{
    std::uint64_t divReciprocals = 0; ///< Div-by-literal → Mul-by-recip.
    std::uint64_t mulConstFolds = 0;  ///< Product chains whose literal
                                      ///< factors/signs were gathered.
    std::uint64_t negFolds = 0;       ///< Neg folded into a coefficient.
    std::uint64_t subToAdd = 0;       ///< Sub rewritten to Add of a
                                      ///< negated product.
    std::uint64_t nodesBefore = 0;    ///< Tree nodes before the pass.
    std::uint64_t nodesAfter = 0;     ///< Tree nodes after the pass.
};

/**
 * Applies the reassociation rules to one expression. Returns the
 * rewritten (interned) tree; `stats`, when non-null, accumulates
 * counts across calls. Pure: never applied implicitly — callers gate
 * on roundingMode().
 */
ExprPtr reassociate(const ExprPtr &e, RewriteStats *stats = nullptr);

/**
 * Vector form for whole-system RHS lowering; also bumps the
 * `ark.compile.rewrite_ops_removed` telemetry counter by the node
 * delta.
 */
std::vector<ExprPtr> reassociate(const std::vector<ExprPtr> &outputs,
                                 RewriteStats *stats = nullptr);

/**
 * The rounding mode a run uses, folding the ARK_ROUNDING environment
 * override into the option value: "exact", "fma" or "reassoc" forces
 * that mode (the sanitizer CI job runs the suites under "reassoc");
 * an unset variable defers to `option` (sim::SimOptions::rounding);
 * any other value logs one warning naming the accepted values, then
 * defers. Mirrors expr::jitEnabled / ARK_JIT_FORCE.
 */
RoundingMode roundingMode(RoundingMode option);

} // namespace ark::expr

#endif // ARK_EXPR_REWRITE_H
