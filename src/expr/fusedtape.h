#ifndef ARK_EXPR_FUSEDTAPE_H
#define ARK_EXPR_FUSEDTAPE_H

/**
 * @file
 * Fused multi-output evaluation tape for whole-system ODE right-hand
 * sides.
 *
 * FusedTape lowers *all* RHS expressions of a dynamical system into a
 * single program of the tape ISA (expr/tape.h) that fills the whole
 * dstate vector in one pass (WriteOutput instructions); a one-output
 * compile serves a single expression, e.g. a SPICE input waveform.
 * Lowering performs:
 *
 *  - global value numbering: structurally identical subexpressions
 *    across equations (Const, LoadTime, LoadState, every operator and
 *    builtin call) are computed once, so shared terms like TLN
 *    neighbor coupling and Kuramoto coupling sums stop being
 *    re-evaluated per equation. Expressions are hash-consed
 *    (expr/expr.h), so structurally equal inputs arrive as one
 *    pointer and memoized numbering hits before any structural
 *    comparison;
 *  - constant folding and exact algebraic identities (x+0, x*1, x/1)
 *    over the value graph;
 *  - exact sign and parity identities, applied after those, so a
 *    mirrored term lowers to the value it mirrors (a Kuramoto edge's
 *    sin(var(s)-var(t)) and sin(-var(s)+var(t)) cost one sin):
 *      -(-x) → x;  x + (-y) → x - y;  x - (-y) → x + y;
 *      (-x)*y, x*(-y) → -(x*y);  (-x)/y, x/(-y) → -(x/y);
 *      odd f (Parity::Odd in expr/builtins.h): f(-x) → -f(x), and
 *      f(b - a) → -f(a - b);  even f: f(-x) → f(x), f(b - a) → f(a - b);
 *    where a difference is reordered only when b's value id is the
 *    larger and neither operand reads a Const (ids order such values
 *    alike in a template and in a value-specialised compile; constants
 *    merge differently in the two). A bare difference outside an odd
 *    or even call stays as written, since linear couplings reach exact
 *    zeros at rest states. Each identity is exact bit for bit except
 *    that at a == b the odd rewrite returns -0 where f(b - a) is +0,
 *    and a NaN result may differ in sign or payload;
 *  - liveness-based register allocation: SSA values are mapped onto a
 *    small reusable register file via last-use linear scan, keeping
 *    the working set cache-resident even for large systems.
 *
 * Each op evaluates by its ARK_TAPE_OPS row, so fused evaluation is
 * numerically identical to evaluating each expression on its own (up
 * to the sign of zero under the x+0 and odd-difference identities,
 * and the sign or payload of a NaN).
 *
 * compile(outputs, slots) compiles a *template*: each subtree
 * slots[j] (a parameter-only subtree the compiler hoisted, see
 * compiler/compiler.h) lowers to one Const instruction whose
 * immediate is a placeholder until bind() sets it. Slot Consts take
 * part in no constant folding or identity rewrite and are shared only
 * by equal slot index, so one template serves every value the slots
 * may take; a bound program performs the IEEE operations the
 * value-specialised compile would perform on the same constants, but
 * may carry more Const instructions (equal values in distinct slots
 * are not merged). Where it does, a commutative instruction may see
 * its operands in the other order, which shows only in which NaN
 * payload it returns when both operands are NaN.
 *
 * Every compiled program records its shape(): a 128-bit key over what
 * LaneTape::merge requires lanes to share (output and register
 * counts, and every instruction but its Const immediate). A bound
 * program inherits its template's shape.
 *
 * FusedTape has two roles (see sim/sim.h for the full execution
 * ladder). It is the compiler: the compiled program (ops()) is what
 * the executing tiers run. expr::LaneTape re-executes the exact
 * instruction stream over a structure-of-arrays block of instance
 * states — a width-1 block for a single instance — with Const
 * immediates lifted into per-lane constant tables so ensembles that
 * share the program but not its parameters (e.g. per-chip mismatch
 * weights) still batch into one stream; the JIT (expr/cjit.h)
 * compiles that LaneTape program to native code. And its own
 * evaluator, evalInto, is the scalar test oracle the bit-identity
 * suites compare the lane interpreter and the kernels against; no
 * integrator calls it (SPICE input waveforms, one-output programs,
 * are its only production use).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "expr/tape.h"

namespace ark::expr {

/** The shape key of a compiled program (see the file header). */
struct TapeShape
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const TapeShape &) const = default;
};

/** Hash functor for unordered containers keyed by TapeShape. */
struct TapeShapeHash
{
    std::size_t operator()(const TapeShape &k) const
    {
        return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull));
    }
};

/**
 * A compiled multi-output register program. One evalInto call fills
 * `out[0..numOutputs)` from the state vector and time.
 */
class FusedTape
{
  public:
    /**
     * Compiles the resolved expressions `outputs[k]` into one fused
     * program writing `out[k]` for every k. Non-empty `slots` compile
     * a template whose Const for slots[j] bind() fills in; Param
     * leaves may appear only inside slots.
     * @throws ark::support::CompileError if any tree still contains
     *         Var, Attr, NodeVar, unslotted Param, or lambda-callee
     *         nodes.
     */
    static FusedTape compile(const std::vector<ExprPtr> &outputs,
                             const std::vector<ExprPtr> &slots = {});

    /**
     * This template with slot j's Const immediate set to values[j]
     * (one value per compile() slot). The result has this program's
     * instructions, registers and shape().
     */
    FusedTape bind(const std::vector<double> &values) const;

    /** The shape key LaneTape::compatible compares. */
    const TapeShape &shape() const { return shape_; }

    /** Number of scratch registers evaluation requires. */
    int numRegs() const { return numRegs_; }

    /** Number of output slots (state variables of the system). */
    std::size_t numOutputs() const { return numOutputs_; }

    /** Number of instructions, including WriteOutput ops. */
    std::size_t size() const { return ops_.size(); }

    /**
     * Compute instructions eliminated by fusion relative to lowering
     * each output's expression tree node by node (CSE hits + folds);
     * perf instrumentation for tests and benchmarks.
     */
    std::size_t fusionSavings() const { return fusionSavings_; }

    /** Largest state index referenced, or -1 when stateless. */
    int maxStateIndex() const { return maxStateIndex_; }

    /**
     * The compiled program. Register indices are final (post
     * allocation); Const instructions carry their value in `imm`.
     * LaneTape consumes this layout to batch the stream across
     * ensemble lanes.
     */
    const std::vector<TapeOp> &ops() const { return ops_; }

    /**
     * Evaluates the whole system: fills out[0..numOutputs). `regs`
     * must hold at least numRegs() doubles; only debug builds check.
     * `out` must not alias `state` or `regs`. The reference evaluator
     * (tests, OdeSystem::evalRhs); simulation runs expr::LaneTape.
     */
    void evalInto(const double *state, double t, double *out,
                  double *regs) const;

    /** Convenience wrapper that owns its scratch (tests). */
    std::vector<double> evalAlloc(const std::vector<double> &state,
                                  double t) const;

  private:
    std::vector<TapeOp> ops_;
    /** Per compile() slot: the index in ops_ of its Const, or -1 when
     *  folding left the slot unused. */
    std::vector<std::int32_t> slotRows_;
    TapeShape shape_;
    int numRegs_ = 0;
    std::size_t numOutputs_ = 0;
    std::size_t fusionSavings_ = 0;
    int maxStateIndex_ = -1;
};

} // namespace ark::expr

#endif // ARK_EXPR_FUSEDTAPE_H
