#ifndef ARK_EXPR_TAPE_H
#define ARK_EXPR_TAPE_H

/**
 * @file
 * The tape ISA: the register instruction set every compiled ODE
 * right-hand side runs on.
 *
 * expr::FusedTape (fusedtape.h) lowers a system's fully resolved RHS
 * expressions (only literals, `time`, state-vector slots, operators
 * and builtins remain) into one program of these instructions. Three
 * evaluators run it and must agree bit for bit: FusedTape's scalar
 * oracle (which also folds constants at compile time), the
 * expr::LaneTape interpreter, and the JIT's C emitter (expr/cjit.h).
 *
 * ARK_TAPE_OPS is the single declaration of the ISA; each evaluator
 * expands it. A row is one opcode:
 *
 *   SPECIAL(Name)            an instruction with its own operand
 *                            convention, hand-written in each
 *                            evaluator;
 *   PURE(Name, Arity, Expr)  dst = Expr, a side-effect-free expression
 *                            over the registers A = r[a], B = r[b] and
 *                            C = r[c]. The op reads its first Arity
 *                            operands; the other slots hold -1.
 *
 * The contract of the table:
 *
 *  - Row order is the OpCode numbering, which the JIT kernel cache
 *    key (engine::kernelKey) hashes: moving or inserting a row
 *    re-keys kernels and needs a kEmitterVersion bump.
 *  - A PURE row's Expr is compiled into the oracle and the lane
 *    interpreter and emitted, operands renamed, into every JIT
 *    kernel. It must mean the same in C++ and in C, and changing it
 *    needs a kEmitterVersion bump (JitKeyTest.SampleProgramKeyIsPinned).
 *
 * The special rows:
 *
 *   Const       dst = imm (LaneTape: constant-table slot a)
 *   LoadTime    dst = t
 *   LoadState   dst = state[a]
 *   CallB       dst = builtin(r[a], r[b], r[c]), operands >= 0 only
 *   WriteOutput out[dst] = r[a]
 */

#include <cstdint>

#include "expr/builtins.h"

#define ARK_TAPE_OPS(SPECIAL, PURE)                                    \
    SPECIAL(Const)                                                     \
    SPECIAL(LoadTime)                                                  \
    SPECIAL(LoadState)                                                 \
    PURE(Neg, 1, -A)                                                   \
    PURE(Add, 2, A + B)                                                \
    PURE(Sub, 2, A - B)                                                \
    PURE(Mul, 2, A * B)                                                \
    PURE(Div, 2, A / B)                                                \
    PURE(Lt, 2, A < B ? 1.0 : 0.0)                                     \
    PURE(Le, 2, A <= B ? 1.0 : 0.0)                                    \
    PURE(Gt, 2, A > B ? 1.0 : 0.0)                                     \
    PURE(Ge, 2, A >= B ? 1.0 : 0.0)                                    \
    PURE(EqOp, 2, A == B ? 1.0 : 0.0)                                  \
    PURE(NeOp, 2, A != B ? 1.0 : 0.0)                                  \
    PURE(AndOp, 2, (A != 0.0 && B != 0.0) ? 1.0 : 0.0)                 \
    PURE(OrOp, 2, (A != 0.0 || B != 0.0) ? 1.0 : 0.0)                  \
    PURE(NotOp, 1, A == 0.0 ? 1.0 : 0.0)                               \
    PURE(Select, 3, C != 0.0 ? A : B)                                  \
    SPECIAL(CallB)                                                     \
    SPECIAL(WriteOutput)

/** Expands a row to nothing (for the row kind an expansion skips). */
#define ARK_TAPE_SKIP(...)

namespace ark::expr {

/** Tape instruction opcodes, in ARK_TAPE_OPS row order. */
enum class OpCode : std::uint8_t {
#define ARK_TAPE_ENUMERATOR(Name, ...) Name,
    ARK_TAPE_OPS(ARK_TAPE_ENUMERATOR, ARK_TAPE_ENUMERATOR)
#undef ARK_TAPE_ENUMERATOR
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

} // namespace ark::expr

#endif // ARK_EXPR_TAPE_H
