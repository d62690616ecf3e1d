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
 *  - liveness-based register allocation: SSA values are mapped onto a
 *    small reusable register file via last-use linear scan, keeping
 *    the working set cache-resident even for large systems.
 *
 * Each op evaluates by its ARK_TAPE_OPS row, so fused evaluation is
 * numerically identical to evaluating each expression on its own (up
 * to the sign of zero under the x+0 identity).
 *
 * compile(outputs, fuseMulAdd = true) derives an FMA variant of
 * the program: a value-graph pass contracts each single-use Mul
 * feeding an Add into one FusedMulAdd instruction (executed with
 * std::fma — exactly one rounding for a*b+c, deterministic across
 * hosts). The pass runs before register allocation so the product's
 * operands stay live to the fused site. It is a guarded opt-in,
 * never applied by default: the default program keeps
 * one-IEEE-rounding-per-arithmetic-step semantics and therefore
 * stays bit-identical to the tree interpreter; the FMA variant
 * agrees with it only to rounding (~1 ulp per contracted pair) but
 * shortens the stream by one instruction per contraction.
 * SimOptions::tapeFma selects the variant on the simulation hot
 * paths.
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
#include <vector>

#include "expr/expr.h"
#include "expr/tape.h"

namespace ark::expr {

/**
 * A compiled multi-output register program. One evalInto call fills
 * `out[0..numOutputs)` from the state vector and time.
 */
class FusedTape
{
  public:
    /**
     * Compiles the resolved expressions `outputs[k]` into one fused
     * program writing `out[k]` for every k. With `fuseMulAdd` set,
     * single-use Mul+Add value pairs contract into FusedMulAdd
     * instructions (see the file header for the rounding contract).
     * @throws ark::support::CompileError if any tree still contains
     *         Var, Attr, NodeVar, or lambda-callee nodes.
     */
    static FusedTape compile(const std::vector<ExprPtr> &outputs,
                             bool fuseMulAdd = false);

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

    /**
     * Mul+Add pairs contracted into FusedMulAdd instructions; 0
     * unless the program was compiled with fuseMulAdd. Every
     * contraction is a Mul whose value fed exactly one Add and
     * nothing else (not even a WriteOutput); the contracted program
     * is shorter by this many instructions and agrees with the plain
     * compile to rounding (the product is no longer rounded before
     * the add).
     */
    std::size_t fmaContractions() const { return fmaContractions_; }

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
    int numRegs_ = 0;
    std::size_t numOutputs_ = 0;
    std::size_t fusionSavings_ = 0;
    std::size_t fmaContractions_ = 0;
    int maxStateIndex_ = -1;
};

} // namespace ark::expr

#endif // ARK_EXPR_FUSEDTAPE_H
