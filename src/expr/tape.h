#ifndef ARK_EXPR_TAPE_H
#define ARK_EXPR_TAPE_H

/**
 * @file
 * Flat evaluation tapes for ODE right-hand sides.
 *
 * The compiler lowers each fully-resolved dynamics expression (only
 * literals, `time`, state-vector slots, operators, and builtins remain)
 * into a postorder register program. The simulator evaluates tapes with
 * zero allocation per step; benchmarks show an order-of-magnitude win
 * over tree walking (see bench/perf_expr).
 *
 * Tape compiles one expression into one program; simulation runs
 * expr::FusedTape programs (fusedtape.h), which lower a whole
 * system's RHS vector into a single program with cross-equation CSE
 * and fill every dstate slot in one pass, through expr::LaneTape.
 * Tape and FusedTape share this instruction set (TapeOp/OpCode) and
 * the scalar executor in tape_exec.h.
 */

#include <cstdint>
#include <vector>

#include "expr/builtins.h"
#include "expr/expr.h"

namespace ark::expr {

/** Tape instruction opcodes. */
enum class OpCode : std::uint8_t {
    Const,     ///< dst = imm
    LoadTime,  ///< dst = t
    LoadState, ///< dst = state[a]
    Neg,       ///< dst = -r[a]
    Add, Sub, Mul, Div,           ///< dst = r[a] op r[b]
    Lt, Le, Gt, Ge, EqOp, NeOp,   ///< dst = r[a] cmp r[b] ? 1 : 0
    AndOp, OrOp,                  ///< dst = bool(r[a]) op bool(r[b])
    NotOp,     ///< dst = r[a] == 0 ? 1 : 0
    Select,    ///< dst = r[c] != 0 ? r[a] : r[b]
    CallB,     ///< dst = builtin(r[a], r[b], r[c])
    WriteOutput, ///< out[dst] = r[a] (FusedTape only)
    /**
     * dst = fma(r[a], r[b], r[c]) — the product is not rounded before
     * the add (one rounding for the whole instruction, via std::fma,
     * so the result is deterministic across hosts and compilers).
     * Never emitted by the base compilers; produced only by the
     * guarded Mul+Add contraction in FusedTape::compile(outputs,
     * fuseMulAdd=true), so default-compiled tape streams never
     * contain it.
     */
    FusedMulAdd,
};

/** One tape instruction; unused operand slots hold -1. */
struct TapeOp
{
    OpCode op;
    Builtin builtin; // valid when op == CallB
    std::int32_t dst;
    std::int32_t a;
    std::int32_t b;
    std::int32_t c;
    double imm;
};

/**
 * A compiled expression: a register program returning one double.
 */
class Tape
{
  public:
    /**
     * Compiles a resolved expression.
     * @throws ark::support::CompileError if the tree still contains
     *         Var, Attr, NodeVar, or lambda-callee nodes.
     */
    static Tape compile(const ExprPtr &e);

    /** Number of scratch registers evaluation requires. */
    int numRegs() const { return numRegs_; }

    /** Number of instructions (for tests and benchmarks). */
    std::size_t size() const { return ops_.size(); }

    /**
     * Evaluates against a state vector and time. `regs` is caller
     * scratch, resized as needed (pass the same buffer across calls to
     * avoid reallocation).
     */
    double eval(const double *state, double t,
                std::vector<double> &regs) const;

    /**
     * Hot-path evaluation against caller scratch of at least
     * numRegs() doubles; no size check beyond a debug assertion.
     * OdeSystem sizes one scratch block per system and reuses it for
     * every call, keeping the resize branch out of the inner loop.
     */
    double eval(const double *state, double t, double *regs) const;

    /** Convenience wrapper that owns its scratch (slower; tests). */
    double evalAlloc(const std::vector<double> &state, double t) const;

    /** Largest state index referenced, or -1 when stateless. */
    int maxStateIndex() const { return maxStateIndex_; }

  private:
    std::vector<TapeOp> ops_;
    int numRegs_ = 0;
    int maxStateIndex_ = -1;

    int emit(const ExprPtr &e);
    int newReg();
    int addOp(TapeOp op);
};

} // namespace ark::expr

#endif // ARK_EXPR_TAPE_H
