#ifndef ARK_COMPILER_COMPILER_H
#define ARK_COMPILER_COMPILER_H

/**
 * @file
 * The Ark dynamical system compiler (paper §5, Algorithm 1).
 *
 * For every node the compiler looks up the most specific production
 * rule for each incident edge (falling back along inheritance chains),
 * rewrites the rule expression onto the concrete elements (attribute
 * values substituted, var(.) references resolved), aggregates the
 * terms with the node type's reduction operator, and emits the
 * differential equations. Order-0 nodes lower to pure functions that
 * are inlined into their consumers; switched-off edges contribute
 * only through `off` production rules.
 *
 * ## Templates and binding
 *
 * Design-space studies evaluate a few structures under many parameter
 * draws, so compilation is split in two. lowerTemplate() lowers a
 * graph once per *structure* (engine::GraphFingerprint::structure)
 * with each ordinary parameter as an expr Param leaf; bind() then
 * turns the template into one instance's OdeSystem in about a
 * microsecond. compile() is lowerTemplate() followed by bind(), so
 * the cached and uncached paths build identical programs.
 *
 * The *parameter vector* of a graph holds its ordinary real
 * attribute values and the ordinary real literals inside its
 * lambda-valued attributes (e.g. a pulse width), in the canonical
 * order of forEachAttr(). A real is ordinary unless it is ±0 or ±1:
 * fold identities (x+0, x*1, x*-1, 0/x, pow(x, 1), ...) rewrite on
 * those values, so they stay literals, and their RealClass is part of
 * the structure. Ints, bools and lambda shapes are structure too.
 *
 * Lowering a template builds every node whose children are literals
 * or parameter-only unevaluated (never identity-folded), so
 * parameter-only subtrees survive whole. Where one meets the rest of
 * the tree it is evaluated, with the expr::eval the folder's constant
 * evaluation uses, under the lowering graph's parameters:
 *
 *  - a value the folder would act on — ±0, ±1 or a non-real, or any
 *    value that decides a branch (an If condition, an And/Or
 *    operand) — is inlined as that literal and recorded as a *pin*
 *    (a GmC line's interior `0/c`, c > 0, pins to +0);
 *  - any other value leaves the subtree in place as a *slot*.
 *
 * The template program (expr::FusedTape::compile with slots) holds one
 * Const per slot. bind() evaluates the instance's pins and slots the
 * same way; when every pin has the template's bits and every slot is
 * ordinary, it patches the slot values into a copy of the program,
 * which then performs the value-specialised compile's IEEE operations
 * on its constants: results are bit-identical. Otherwise (counted by
 * ark.compile.bind_fallbacks) the graph gets a template lowered from
 * its own values, exactly what compile() would build.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/odesystem.h"
#include "dg/graph.h"
#include "lang/language.h"

namespace ark::compiler {

/**
 * How a real value enters a template: as a parameter, or — for the
 * four values fold identities rewrite on — as a literal whose class
 * is part of the structure.
 */
enum class RealClass : std::uint8_t { Param, PosZero, NegZero, PosOne, NegOne };

/** The RealClass of `x` (NaN and infinities are parameters). */
RealClass classifyReal(double x);

/**
 * Visits every attribute value of `graph` in canonical order — nodes,
 * then edges, in insertion order; an element's attributes by name —
 * and appends the parameters each carries to `params`: an ordinary
 * real is one parameter; a lambda carries its ordinary real literals,
 * in preorder. `visit` (optional) then sees the attribute's name, its
 * effective value and, for a lambda, its template form: the lambda
 * with those literals as Param leaves indexing `params`.
 */
void forEachAttr(const dg::Graph &graph, std::vector<double> &params,
                 const std::function<void(const std::string &name,
                                          const expr::Value &value,
                                          const expr::Lambda *lifted)>
                     &visit = {});

/** The graph's parameter vector (see the file header). */
std::vector<double> parameterVector(const dg::Graph &graph);

/** A pinned parameter-only subtree and the value it must take. */
struct Pin
{
    expr::ExprPtr expr;
    expr::Value value;
};

/**
 * One structure's lowered program, shared by every instance of the
 * structure that fits its pins: the state layout, the RHS trees with
 * Param leaves, the pins, the slots and the template tape. Immutable.
 */
class SystemTemplate
{
  public:
    const std::vector<StateVar> &vars() const { return vars_; }

    /** RHS trees over Param leaves (parameter-vector indices). */
    const std::vector<expr::ExprPtr> &rhs() const { return rhs_; }

    /** Parameter-only subtrees inlined as the lowering graph's
     *  values; bind() requires the same bits. */
    const std::vector<Pin> &pins() const { return pins_; }

    /** Maximal parameter-only subtrees of rhs(), in tape slot order. */
    const std::vector<expr::ExprPtr> &slots() const { return slots_; }

    /** The template program: one placeholder Const per slot. */
    const expr::FusedTape &tape() const { return tape_; }

    /** Parameter-vector length of the structure's graphs. */
    std::size_t numParams() const { return numParams_; }

  private:
    friend std::shared_ptr<const SystemTemplate>
    lowerTemplate(const dg::Graph &, const lang::Language &);

    std::vector<StateVar> vars_;
    std::vector<expr::ExprPtr> rhs_;
    std::vector<Pin> pins_;
    std::vector<expr::ExprPtr> slots_;
    expr::FusedTape tape_;
    std::size_t numParams_ = 0;
};

using TemplatePtr = std::shared_ptr<const SystemTemplate>;

/**
 * Lowers `graph` to a template (span ark.compile.lower). Graphs with
 * the same engine::GraphFingerprint::structure whose values take the
 * same pins lower to the same template.
 * @throws as compile() does.
 */
TemplatePtr lowerTemplate(const dg::Graph &graph,
                          const lang::Language &lang);

/**
 * Binds `graph`'s parameters and initial state into `tmpl`, a
 * template of its structure (span ark.compile.bind). When the graph's
 * values do not fit the template (see the file header) it binds a
 * template lowered from `graph` instead. The bound system builds
 * rhsExprs() on first request.
 */
OdeSystem bind(const TemplatePtr &tmpl, const dg::Graph &graph,
               const lang::Language &lang);

/**
 * Compiles a dynamical graph into its ODE system: lowerTemplate()
 * then bind().
 *
 * @throws ark::support::CompileError on ambiguous rules, var(.)
 *         references to undefined values, or order-0 dependency
 *         cycles.
 */
OdeSystem compile(const dg::Graph &graph, const lang::Language &lang);

/**
 * Returns the inlined defining expression of an order-0 node, or the
 * state variable reference for order>0 nodes (exposed for tests and
 * for observers that read function-node outputs).
 */
expr::ExprPtr nodeValueExpr(const dg::Graph &graph,
                            const lang::Language &lang,
                            const std::string &nodeName);

} // namespace ark::compiler

#endif // ARK_COMPILER_COMPILER_H
