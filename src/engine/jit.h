#ifndef ARK_ENGINE_JIT_H
#define ARK_ENGINE_JIT_H

/**
 * @file
 * Engine front door for JIT kernels: resolves a LaneTape to its
 * compiled native kernel through the ArtifactCache.
 *
 * This is the one call sites use — it folds together the toolchain
 * probe (expr::jitToolchainAvailable), the structure cache key
 * (engine::kernelKey), the in-memory kernel shard, and the on-disk
 * object cache (expr::compileKernel). Null means "interpret": every
 * failure mode — jit disabled, no toolchain, compile failure, forced
 * FaultSite::JitCompile — degrades to the LaneTape interpreter with
 * bit-identical results.
 */

#include "expr/cjit.h"

namespace ark::engine {

class ArtifactCache;

/**
 * The compiled kernel for `tape`'s structure, compiling on first use.
 * Served through `cache` when given, the process-wide shared cache
 * otherwise (kernels are pure functions of tape structure, so sharing
 * across sessions is always sound). Returns null when the kernel
 * cannot be produced; never throws.
 */
expr::JitKernelPtr jitKernel(const expr::LaneTape &tape,
                             ArtifactCache *cache = nullptr);

} // namespace ark::engine

#endif // ARK_ENGINE_JIT_H
