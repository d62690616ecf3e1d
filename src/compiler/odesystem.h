#ifndef ARK_COMPILER_ODESYSTEM_H
#define ARK_COMPILER_ODESYSTEM_H

/**
 * @file
 * The compiled dynamical system: state variables, initial values, and
 * right-hand-side expressions (as trees and fused tapes).
 *
 * A node of order p contributes p state variables q_0..q_{p-1}
 * (LowOrdEqs chain dq_i/dt = q_{i+1}); order-0 nodes are inlined as
 * pure functions and own no state.
 *
 * Construction compiles at most one program: the fused whole-system
 * expr::FusedTape (the system's one RHS program — cross-equation
 * common subexpressions are computed once and one pass fills all of
 * dstate).
 * A *bound* system (compiler::bind) compiles none: it takes its
 * structure template's program with this instance's slot values
 * patched in, and builds its RHS trees, rhsExprs(), only on first
 * request — by substituting its parameter vector into the template's
 * trees and folding (expr::bindParams), which yields the trees the
 * value-specialised lowering builds. Its program may carry more Const
 * instructions than FusedTape::compile(rhsExprs()) (equal values in
 * distinct slots are not merged) but evaluates bit-identically.
 *
 * The fused program is also the unit of ensemble batching: fusedTape()
 * exposes the compiled layout so sim::BatchRunner can merge
 * structurally identical systems (same stream, different constants —
 * e.g. per-chip mismatch) into one expr::LaneTape and integrate many
 * instances per instruction dispatch. evalRhs and evalRhsInterpreted
 * are the two reference evaluators; see sim/sim.h for the full
 * four-tier execution ladder.
 */

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "expr/fusedtape.h"

namespace ark::compiler {

/** Descriptor of one state variable. */
struct StateVar
{
    std::string node; ///< Owning DG node name.
    int derivative;   ///< Which derivative of the node (0-based).

    /** "name" for derivative 0, "name'" etc. above. */
    std::string label() const;
};

/**
 * A system of first-order ODEs dq/dt = f(q, t) produced by the Ark
 * compiler. Logically immutable after construction; a bound system's
 * lazily built RHS trees are memoized derived data (thread-safe), not
 * state.
 */
class OdeSystem
{
  public:
    OdeSystem(std::vector<StateVar> vars, std::vector<double> initial,
              std::vector<expr::ExprPtr> rhs);

    /**
     * A bound system: `tape` is the template's program bound to this
     * instance's slot values; rhsExprs() is built on first request
     * from `templateRhs`, whose Param leaves index `params`.
     */
    OdeSystem(std::vector<StateVar> vars, std::vector<double> initial,
              expr::FusedTape tape,
              std::shared_ptr<const std::vector<expr::ExprPtr>> templateRhs,
              std::vector<double> params);

    /** Copies share the (interned) RHS and fused tape; a bound
     *  system's RHS trees start unbuilt in the copy. */
    OdeSystem(const OdeSystem &other);
    OdeSystem &operator=(const OdeSystem &other);
    OdeSystem(OdeSystem &&) noexcept = default;
    OdeSystem &operator=(OdeSystem &&) noexcept = default;

    std::size_t size() const { return vars_.size(); }
    const std::vector<StateVar> &vars() const { return vars_; }
    const std::vector<double> &initialState() const { return initial_; }

    /** The RHS expression trees (a bound system builds them on the
     *  first call; thread-safe). */
    const std::vector<expr::ExprPtr> &rhsExprs() const;

    /**
     * State index of a node's derivative.
     * @throws CompileError when the node has no such state variable.
     */
    int stateIndex(const std::string &node, int derivative = 0) const;

    /**
     * Evaluates the right-hand side into dstate using the fused
     * whole-system tape. `scratch` is caller-owned to keep the hot
     * loop allocation-free; it is grown to scratchSize() on first use
     * and never resized again.
     */
    void evalRhs(const double *state, double t, double *dstate,
                 std::vector<double> &scratch) const;

    /** Reference tree-walking evaluation (tests, perf ablation). */
    void evalRhsInterpreted(const double *state, double t,
                            double *dstate) const;

    /** Scratch doubles evalRhs requires. */
    std::size_t scratchSize() const
    {
        return static_cast<std::size_t>(fused_.numRegs());
    }

    /** A correctly sized scratch buffer for evalRhs. */
    std::vector<double> makeScratch() const
    {
        return std::vector<double>(scratchSize());
    }

    /** The fused whole-system tape: the one RHS program every
     *  evaluator and integration driver runs. */
    const expr::FusedTape &fusedTape() const { return fused_; }

    /** Pretty-printed equations, one per line ("d name/dt = ..."). */
    std::string equationsStr() const;

  private:
    std::vector<StateVar> vars_;
    std::vector<double> initial_;
    /** Built by a bound system's first rhsExprs() call (under
     *  rhsOnce_), set at construction otherwise. */
    mutable std::vector<expr::ExprPtr> rhs_;
    expr::FusedTape fused_;
    /** Bound systems only: the template trees and parameter vector
     *  rhs_ is built from. */
    std::shared_ptr<const std::vector<expr::ExprPtr>> templateRhs_;
    std::vector<double> params_;
    /** Heap-allocated so OdeSystem stays movable (std::once_flag is
     *  not); the pointer never changes after construction. */
    std::unique_ptr<std::once_flag> rhsOnce_;
};

/**
 * Compiles an RHS program (expr::FusedTape::compile, optionally a
 * template over `slots`) under the ark.compile.tapes span and tape
 * counters.
 */
expr::FusedTape compileRhsTape(const std::vector<expr::ExprPtr> &rhs,
                               const std::vector<expr::ExprPtr> &slots = {});

} // namespace ark::compiler

#endif // ARK_COMPILER_ODESYSTEM_H
