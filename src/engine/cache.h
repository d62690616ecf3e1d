#ifndef ARK_ENGINE_CACHE_H
#define ARK_ENGINE_CACHE_H

/**
 * @file
 * Process-wide content-addressed cache of compiled artifacts.
 *
 * ArtifactCache maps fingerprints (engine/fingerprint.h) to shared,
 * immutable, ready-to-run artifacts:
 *
 *  - dg::Graph + language -> shared_ptr<const compiler::OdeSystem>,
 *    keyed by the graph's combined fingerprint. A hit skips ILP
 *    validation, lowering and binding entirely. Because compilation
 *    is deterministic, a cached system is bit-identical to a freshly
 *    compiled one — ensembles mixing cached and cold systems produce
 *    bit-identical trajectories (engine_test regression-tests this at
 *    several thread counts).
 *
 *  - GraphFingerprint::structure -> compiler::SystemTemplate: the
 *    template shard behind the system shard. A system miss whose
 *    structure was seen before validates and binds the cached
 *    template (compiler::bind, about a microsecond) instead of
 *    lowering the graph (20-600 us); only a template miss lowers.
 *    compiler::compile, the uncached path, lowers a template and
 *    binds it the same way, so cached and uncached compiles build
 *    identical programs.
 *
 *  - kernelKey(laneTape) -> shared_ptr<const expr::JitKernel>: a
 *    JIT native kernel (expr/cjit.h). Keyed by tape structure
 *    only — per-lane constants are call-time data — so one compiled
 *    kernel serves every parameter draw of a structure class, and a
 *    PUF battery's worth of chips share a single compilation.
 *
 *  - stepperKey(pattern, pivot source, values, dt, finalH) ->
 *    shared_ptr<const spice::TransientStepper>: a factored trapezoidal
 *    companion operator. Keys carry the values of the instance whose
 *    factorization chose the pivot order, so a cached stepper holds
 *    exactly the bits the uncached leader-factor/member-rebind path
 *    would compute — repeated sweeps hit warm factors without any
 *    numerical drift. TransientStepper::run is const and thread-safe,
 *    so one cached stepper serves concurrent instances.
 *
 * The cache is bounded (per-kind LRU eviction) and thread-safe: all
 * bookkeeping happens under one mutex, while compilation/factorization
 * of a missing artifact runs outside it (two threads racing on the
 * same key may both build; the results are identical bits and the
 * first insert wins — the loser is handed the incumbent pointer, so
 * determinism is unaffected). Entries are shared_ptrs,
 * so eviction never invalidates artifacts still in use by a running
 * ensemble.
 *
 * shared() is the process-wide instance behind engine::Session;
 * workloads wanting isolation (benchmarks, tests) construct their own.
 */

#include <cstdint>
#include <functional>
#include <memory>

#include "compiler/odesystem.h"
#include "engine/fingerprint.h"
#include "spice/mna.h"

namespace ark::expr {
class JitKernel;
}

namespace ark::engine {

/** Capacity bounds (entries, not bytes). */
struct CacheConfig
{
    /**
     * Compiled OdeSystems kept, and structure templates kept (each
     * shard holds up to this many). Sized for structure-reuse
     * workloads (a 16-challenge x 8-chip CRP battery is 144
     * artifacts). A sweep of more parameter draws than this churns
     * the system shard's LRU tail, which is cheap as long as its
     * structures fit the template shard: each system miss then costs
     * a fingerprint, validation and a ~1 us bind (max-cut's 2000
     * draws per pass over 128 structures re-bind, not re-lower).
     */
    std::size_t maxSystems = 256;

    /** Factored TransientSteppers kept (each is a few pivot/fill
     *  vectors — far smaller than a compiled system). */
    std::size_t maxSteppers = 1024;

    /** Loaded JIT kernels kept (each pins one small dlopened
     *  object). Distinct (structure, width) pairs are few even in
     *  large batteries, so this rarely evicts. */
    std::size_t maxKernels = 256;
};

/** Monotonic hit/miss/eviction counters plus current occupancy. */
struct CacheStats
{
    std::uint64_t systemHits = 0;
    std::uint64_t systemMisses = 0;
    std::uint64_t systemEvictions = 0;
    std::uint64_t templateHits = 0;
    std::uint64_t templateMisses = 0;
    std::uint64_t templateEvictions = 0;
    std::uint64_t stepperHits = 0;
    std::uint64_t stepperMisses = 0;
    std::uint64_t stepperEvictions = 0;
    std::uint64_t kernelHits = 0;
    std::uint64_t kernelMisses = 0;
    std::uint64_t kernelEvictions = 0;
    std::size_t systemsCached = 0;
    std::size_t templatesCached = 0;
    std::size_t steppersCached = 0;
    std::size_t kernelsCached = 0;

    /** One-line summary ("systems 3 hit / 1 miss ..."). */
    std::string str() const;
};

/** Shared immutable compiled system (the engine ownership unit). */
using SystemPtr = std::shared_ptr<const compiler::OdeSystem>;

/** Shared immutable factored companion operator. */
using StepperPtr = std::shared_ptr<const spice::TransientStepper>;

/** Shared immutable loaded JIT kernel (expr/cjit.h). */
using KernelPtr = std::shared_ptr<const expr::JitKernel>;

class ArtifactCache
{
  public:
    explicit ArtifactCache(CacheConfig config = CacheConfig{});
    ~ArtifactCache();

    ArtifactCache(const ArtifactCache &) = delete;
    ArtifactCache &operator=(const ArtifactCache &) = delete;

    const CacheConfig &config() const { return config_; }

    /**
     * The compiled system for `graph` in `lang`. On miss, validates
     * (validator::validateOrThrow), binds the structure's template
     * (lowering it first on a template miss) and caches under the
     * graph's combined content fingerprint; on hit, every step is
     * skipped — sound because validation and compilation are
     * deterministic functions of the fingerprinted content.
     * @throws ark::support::SemaError / CompileError exactly as the
     *         uncached validate+compile path would (nothing is cached
     *         on throw).
     */
    SystemPtr system(const dg::Graph &graph, const lang::Language &lang);

    /**
     * Variant for callers that already computed the fingerprint (and
     * want the structure lane for other purposes, e.g. grouping).
     */
    SystemPtr system(const GraphFingerprint &fp, const dg::Graph &graph,
                     const lang::Language &lang);

    /**
     * The factored stepper for `key` (see engine::stepperKey). On
     * miss, invokes `build` outside the cache lock and caches its
     * result; on throw nothing is cached and the exception
     * propagates. `hit`, when non-null, reports whether the stepper
     * came from the cache — per-sweep hit-rate accounting.
     */
    StepperPtr stepper(const Fingerprint &key,
                       const std::function<StepperPtr()> &build,
                       bool *hit = nullptr);

    /**
     * The loaded JIT kernel for `key` (see engine::kernelKey). On
     * miss, invokes `build` outside the cache lock. Unlike the other
     * kinds, `build` may return null — kernel compilation fails
     * gracefully (no toolchain, forced fault) — in which case nothing
     * is cached and null is returned; the caller falls back to the
     * interpreted tier. `hit` reports whether the kernel came from
     * the cache.
     */
    KernelPtr kernel(const Fingerprint &key,
                     const std::function<KernelPtr()> &build,
                     bool *hit = nullptr);

    /** Counters snapshot (monotonic apart from occupancy). */
    CacheStats stats() const;

    /** Drops every entry; counters keep accumulating. */
    void clear();

    /** Process-wide cache backing engine::Session by default. */
    static ArtifactCache &shared();

  private:
    struct Impl;
    CacheConfig config_;
    std::unique_ptr<Impl> impl_;
};

} // namespace ark::engine

#endif // ARK_ENGINE_CACHE_H
