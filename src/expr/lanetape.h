#ifndef ARK_EXPR_LANETAPE_H
#define ARK_EXPR_LANETAPE_H

/**
 * @file
 * Lane-parallel batch execution of fused whole-system tapes.
 *
 * LaneTape's interpreter is the RHS evaluator of every simulation
 * path: lane blocks of up to 8 ensemble instances, and the scalar
 * integrators, which run a width-1 broadcast(). It re-executes a
 * compiled FusedTape program over a structure-of-arrays block of N
 * instance states — one instruction stream, W lanes wide. Each
 * instruction's inner loop runs lanewise over a compile-time width W
 * in {1, 2, 4, 8} (runtime dispatch picks the instantiation), so the
 * per-instruction dispatch cost is amortized W-fold. The tier above
 * it, JIT native kernels (expr/cjit.h), compiles the same program to
 * C.
 *
 * Every lane loop is load–compute–store: it reads all W lanes of each
 * operand row into local arrays, computes the W results into a local
 * array, then stores them. Had the loop stored each lane as it went,
 * the compiler could not rule out that the store overlaps the next
 * lane's operand, and would keep it scalar; with the locals, GCC packs
 * the width-2/4/8 arithmetic into SIMD (SSE2 on the baseline ISA).
 * Rows never partially overlap and every read happens before the
 * write, so an instruction that overwrites one of its own operand rows
 * stays correct (which is also why the row pointers are not
 * __restrict).
 *
 * Constants are lifted out of the instruction stream into a per-lane
 * constant table. This is what lets *heterogeneous-parameter,
 * homogeneous-structure* ensembles — e.g. a PUF battery where every
 * chip shares the circuit topology but carries its own mismatch
 * weights — share one program: merge() takes N structurally identical
 * FusedTapes that differ only in Const immediates and builds one
 * LaneTape whose Const instructions load lane-varying values.
 *
 * Memory layout (SoA, lane-minor): a block value v of variable or
 * register i in lane l lives at `buf[i * width() + l]`. Lanes never
 * interact — a NaN in one lane cannot contaminate another — which the
 * batch integrator's divergence masking relies on.
 *
 * The interpreter does not dispatch ops() as is. merge() derives a
 * shorter stream without Const and LoadState instructions: each
 * operand that read a loaded register reads the constant or state
 * row it was loaded from instead, in one lane-minor file
 *
 *     [ registers (numRegs) | constant slots | state slots ]
 *
 * that evalInto keeps in the caller's scratch (scratchSize() covers
 * all three parts) and refills with two block copies per call.
 *
 * It then fuses the patterns that GmC-TLN's w·x/c coupling sums lower
 * to, so each costs one dispatch (streamSize() counts them):
 *
 *   MulDiv     (A * B) / C       a Mul whose only reader is a Div's
 *                                dividend;
 *   AddMulDiv  A + (B * C) / E   a MulDiv whose only reader is an Add,
 *   MulDivAdd  (B * C) / E + A   on either side (each form keeps the
 *                                Add's operand order, as the oracle
 *                                spells it; on x86, x + y and y + x
 *                                can return different NaN payloads,
 *                                though GCC, which treats + as
 *                                commutative, may pick either order
 *                                in any evaluator);
 *
 * and any register result whose only reader is a WriteOutput is
 * stored into the output slot by its producer. A fused body composes
 * the ARK_TAPE_OPS rows it replaces (the Div row applied to the Mul
 * row), so no opcode is defined twice and every lane performs the
 * same IEEE operations in the same order as before. A pattern fuses
 * only when
 *
 *  - the consumer is the only reader of the producer's result before
 *    that register is written again, and
 *  - no instruction between producer and consumer writes a row the
 *    producer reads (FusedTape recycles registers FIFO, so one may).
 *
 * A WriteOutput of a constant or state row has no producer and stays
 * a copy. The pass is linear in the stream: it tracks each row's last
 * writer. ops() and constants() are unaffected by both passes: they
 * stay the JIT emitter's input and the kernel cache key's.
 *
 * Numerics: every lane executes the exact arithmetic of the source
 * FusedTape with the same IEEE operations in the same order (loads
 * only move values, and a fused form rounds each row it composes),
 * so lane results are bit-identical to FusedTape::evalInto, the test
 * oracle, on the same state (builtin calls included; they evaluate per
 * lane). Each pure op's lane loop is its ARK_TAPE_OPS row
 * (expr/tape.h), the row the oracle and the JIT emitter expand too.
 * evalInto is a pure function of its inputs: the TapeNan fault drill
 * fires in the caller (sim/batch.cc).
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "expr/tape.h"

namespace ark::expr {

class FusedTape;

/**
 * A fused program batched across ensemble lanes. Immutable after
 * construction; evalInto is const and takes caller scratch, so one
 * LaneTape may be shared across threads.
 */
class LaneTape
{
  public:
    /** Widest supported lane block. */
    static constexpr std::size_t kMaxLanes = 8;

    /**
     * Batches one program over `lanes` identical-parameter lanes
     * (homogeneous ensembles: one system, many initial states).
     * `lanes` must be in [1, kMaxLanes].
     */
    static LaneTape broadcast(const FusedTape &tape, std::size_t lanes);

    /**
     * Merges N structurally identical programs (same instruction
     * stream, registers, and outputs; only Const immediates may
     * differ) into one lane-batched program with per-lane constant
     * tables. Returns nullopt when any stream diverges structurally —
     * the caller falls back to scalar execution. N must be in
     * [1, kMaxLanes].
     */
    static std::optional<LaneTape>
    merge(const std::vector<const FusedTape *> &tapes);

    /** Logical lanes (ensemble instances) in the block. */
    std::size_t lanes() const { return lanes_; }

    /**
     * Physical lane width: the smallest of {1, 2, 4, 8} holding
     * lanes(). Lanes beyond lanes() are padding; callers must fill
     * their state columns with finite values (the batch integrator
     * replicates lane 0) and ignore their outputs.
     */
    std::size_t width() const { return width_; }

    /** State variables / output slots per lane. */
    std::size_t numOutputs() const { return numOutputs_; }

    /** Scratch doubles evalInto requires: the whole interpreter file
     *  (registers, constant slots and state slots) x width. */
    std::size_t scratchSize() const { return fileRows_ * width_; }

    /** Instruction count, including WriteOutput ops. */
    std::size_t size() const { return ops_.size(); }

    /** Instructions evalInto dispatches per call: size() less the
     *  folded loads and the instructions fused into others. */
    std::size_t streamSize() const { return stream_.size(); }

    /** The program; Const ops hold a constant-table slot in `a`.
     *  Exposed for the JIT emitter and its cache key. */
    const std::vector<TapeOp> &ops() const { return ops_; }

    /** Per-lane constant table, slot-major (slot * width() + lane);
     *  the `consts` argument a JIT kernel is called with. */
    const std::vector<double> &constants() const { return constants_; }

    /** Registers per lane of ops(); the JIT kernel's register file. */
    int numRegs() const { return numRegs_; }

    /**
     * Evaluates the whole block: `state` and `out` are SoA blocks of
     * numOutputs() x width() doubles, `regs` holds scratchSize()
     * doubles (the interpreter file; its contents on entry do not
     * matter). One shared time t drives every lane (the batch
     * integrator runs a homogeneous time grid). `out` must not alias
     * `state` or `regs`.
     */
    void evalInto(const double *state, double t, double *out,
                  double *regs) const;

    /**
     * True when two fused programs would merge: identical instruction
     * streams up to Const immediates, i.e. equal FusedTape::shape()
     * keys. O(1); merge() checks every member with it.
     */
    static bool compatible(const FusedTape &a, const FusedTape &b);

  private:
    /** What the interpreter dispatches: one code per ARK_TAPE_OPS row,
     *  in OpCode order, then the fused forms (see the file header). */
    enum class LaneOp : std::uint8_t {
#define ARK_LANE_ENUMERATOR(Name, ...) Name,
        ARK_TAPE_OPS(ARK_LANE_ENUMERATOR, ARK_LANE_ENUMERATOR)
#undef ARK_LANE_ENUMERATOR
        MulDiv,    ///< (A * B) / C
        AddMulDiv, ///< A + (B * C) / E
        MulDivAdd, ///< (B * C) / E + A
    };

    /** Interpreter instruction: operands are file rows, -1 where
     *  unused; dst is a file row, or an output slot when toOutput
     *  (every WriteOutput, and each producer fused with one). */
    struct FileOp
    {
        LaneOp op;
        Builtin builtin;
        bool toOutput;
        std::int32_t dst, a, b, c, e;
    };

    LaneTape() = default;

    /** Derives stream_ and the file layout from ops_. */
    void deriveStream();

    /** Fuses stream_'s patterns in place (see the file header). */
    void fuseStream();

    template <int W>
    void evalIntoT(const double *state, double t, double *out,
                   double *file) const;

    /** Program; Const ops hold a constant-table slot in `a`. */
    std::vector<TapeOp> ops_;
    /** Per-lane constants, slot-major: constants_[slot * width_ + l]. */
    std::vector<double> constants_;
    /** What evalInto dispatches: ops_ without Const and LoadState,
     *  fused. */
    std::vector<FileOp> stream_;
    int numRegs_ = 0;
    std::size_t numOutputs_ = 0;
    std::size_t lanes_ = 0;
    std::size_t width_ = 0;
    std::size_t stateRow_ = 0;  ///< First state row of the file.
    std::size_t stateRows_ = 0; ///< State slots the program loads.
    std::size_t fileRows_ = 0;  ///< Registers + constants + states.
};

} // namespace ark::expr

#endif // ARK_EXPR_LANETAPE_H
