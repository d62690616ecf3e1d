#ifndef ARK_EXPR_CJIT_H
#define ARK_EXPR_CJIT_H

/**
 * @file
 * JIT execution: native code generation for lane tape programs.
 *
 * The top rung of the execution ladder (interpreter -> FusedTape ->
 * LaneTape -> JIT): a LaneTape program is lowered to straight-line
 * C — one outer loop over the independent lanes whose body is one
 * statement per tape instruction, in stream order, with no
 * reassociation, over a per-lane scalar register file; a pure
 * instruction's statement is its ARK_TAPE_OPS row (expr/tape.h), the
 * same row the interpreters compile — compiled
 * to a shared object with `-O2 -fno-fast-math -ffp-contract=off`
 * (plus value-preserving vectorize/unroll/host-ISA flags), dlopened,
 * and called through one function pointer per step. This removes both
 * the per-instruction dispatch the interpreter pays and its strided
 * inter-op register spills, while keeping every IEEE operation,
 * operand order, and libm call identical per lane, so kernel results
 * are bit-identical to LaneTape::evalInto (regression-tested in
 * tests/jit_test.cc across random TLN/OBC/CNN programs at every
 * width, with and without FMA contraction).
 *
 * Kernels are pure functions of the tape *structure* (opcode stream,
 * width, register/output counts) — per-lane Const immediates arrive
 * through the `consts` argument at call time — so one compiled kernel
 * serves every parameter draw of a structure class. engine/jit.h
 * caches kernels in the ArtifactCache under engine::kernelKey, and
 * compiled objects persist in a bounded on-disk cache so warm starts
 * survive process restarts.
 *
 * Everything here degrades gracefully: no toolchain on the host, a
 * failed compile, or an armed FaultSite::JitCompile makes
 * compileKernel return null and callers fall back to the interpreted
 * tier. SimOptions::jit is off by default, so hosts without a C
 * compiler never attempt compilation at all.
 */

#include <cstddef>
#include <memory>
#include <string>

#include "expr/lanetape.h"
#include "support/dl.h"

namespace ark::expr {

/**
 * Native kernel entry point. `state` and `out` are SoA blocks of
 * numOutputs x width doubles (lane-minor, exactly LaneTape::evalInto's
 * layout), `consts` is the tape's per-lane constant table. Scratch
 * registers live on the kernel's own stack.
 */
using JitKernelFn = void (*)(const double *state, double t, double *out,
                             const double *consts);

/**
 * One compiled, loaded kernel. Immutable and thread-safe: call() is
 * const and touches only caller-owned buffers, so one kernel is
 * shared across every worker thread evaluating its structure class.
 * Owns the dlopen handle; the mapping lives as long as any
 * shared_ptr holder.
 */
class JitKernel
{
  public:
    JitKernel(support::DynamicLibrary lib, JitKernelFn fn,
              std::size_t width, std::size_t numOutputs)
        : lib_(std::move(lib)), fn_(fn), width_(width),
          numOutputs_(numOutputs)
    {
    }

    /** Evaluates the block; drop-in for LaneTape::evalInto minus the
     *  scratch argument (the kernel owns its registers). */
    void call(const double *state, double t, double *out,
              const double *consts) const
    {
        fn_(state, t, out, consts);
    }

    std::size_t width() const { return width_; }
    std::size_t numOutputs() const { return numOutputs_; }

  private:
    support::DynamicLibrary lib_;
    JitKernelFn fn_;
    std::size_t width_;
    std::size_t numOutputs_;
};

using JitKernelPtr = std::shared_ptr<const JitKernel>;

/**
 * Whether the JIT tier should run, folding the ARK_JIT_FORCE
 * environment override into the option value: "1"/"on"/"true" forces
 * the tier on (the jit CI job runs tier-1 this way),
 * "0"/"off"/"false" forces it off, anything else defers to
 * `optionValue` (SimOptions::jit).
 */
bool jitEnabled(bool optionValue);

/**
 * Whether a working C toolchain was found (ARK_CC, then cc/gcc/clang
 * on PATH, probed once per process by compiling a trivial kernel).
 * False means compileKernel will always return null.
 */
bool jitToolchainAvailable();

/**
 * The C translation unit for `tape`'s kernel (exposed for tests).
 * Deterministic in the tape structure; floating-point literals are
 * emitted as hexfloats so parsing is exact.
 */
std::string emitKernelC(const LaneTape &tape);

/**
 * Emits, compiles, and loads the kernel for `tape`. `cacheKey` names
 * the on-disk cache entry (engine::kernelKey(tape).str(); pass an
 * empty string to bypass the disk cache). Returns null — never
 * throws — when no toolchain is available, the compiler fails, the
 * object cannot be loaded, or FaultSite::JitCompile fires; callers
 * fall back to the interpreted tier.
 */
JitKernelPtr compileKernel(const LaneTape &tape,
                           const std::string &cacheKey);

} // namespace ark::expr

#endif // ARK_EXPR_CJIT_H
