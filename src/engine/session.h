#ifndef ARK_ENGINE_SESSION_H
#define ARK_ENGINE_SESSION_H

/**
 * @file
 * The engine session: one cache-backed front door for repeated
 * simulation workloads.
 *
 * Session unifies the two batch tiers behind content-addressed
 * artifacts (engine/cache.h):
 *
 *  - ODE side: compile() resolves a dynamical graph to a shared
 *    immutable OdeSystem through the ArtifactCache (ILP validation
 *    and binding run once per distinct content, compiler lowering
 *    once per distinct structure), and
 *    runEnsemble() integrates a batch of such systems on
 *    sim::BatchRunner::shared() — lane batching, step voting, and
 *    thread-pool reuse all apply as documented in sim/batch.h.
 *
 *  - SPICE side: runSweep() runs spice::TransientBatch, the one sweep
 *    engine, with the ArtifactCache as its stepper policy: each
 *    factored TransientStepper the sweep needs is looked up under
 *    stepperKey(pattern, pivot-source values, bound values, dt,
 *    finalH) before it is built. A repeated sweep (challenge
 *    batteries, re-validation) hits warm factors: zero symbolic
 *    analyses, zero numeric refactorizations. Results are
 *    bit-identical to an uncached sweep because cached factors carry
 *    their pivot source in the key — a member stepper is always the
 *    leader's factors numerically rebound to the member's values,
 *    exactly what the uncached path computes.
 *
 * Results come back exactly as the batch engines report them:
 * per-instance failures are structured results, and the session
 * never retries or degrades a run. A caller that wants another
 * attempt reruns the instances it chooses.
 *
 * Sessions are cheap value objects (an options struct and a cache
 * pointer); copy them freely. All methods are const and thread-safe.
 * SessionOptions::caching = false bypasses the cache entirely and
 * reproduces the historical per-call build paths bit-for-bit —
 * ablation benchmarks and differential tests toggle only that flag.
 */

#include <vector>

#include "engine/cache.h"
#include "sim/sim.h"
#include "spice/batch.h"
#include "support/ledger.h"
#include "support/telemetry.h"

namespace ark::engine {

/** Session configuration. */
struct SessionOptions
{
    /**
     * Serve artifacts through the ArtifactCache. Off rebuilds every
     * artifact per call (validate + compile, factor per sweep) —
     * results are bit-identical either way.
     */
    bool caching = true;

    /** Cache to use; nullptr selects ArtifactCache::shared(). */
    ArtifactCache *cache = nullptr;

    /**
     * Session-level flight recorder: every runEnsemble/runSweep
     * dispatched through this session appends its per-instance
     * provenance records here unless the per-run options carry their
     * own ledger. Observation-only (results are bit-identical with
     * and without it); the pointed-to ledger must outlive the
     * session's runs. Null = no session ledger.
     */
    telemetry::RunLedger *ledger = nullptr;
};

/** What a SPICE sweep did: structure groups and stepper-cache
 *  hits/misses (both 0 with caching off). */
using SweepStats = spice::TransientBatchStats;

class Session
{
  public:
    Session() = default;
    explicit Session(SessionOptions options) : options_(options) {}

    const SessionOptions &options() const { return options_; }

    /** The cache this session resolves artifacts against. */
    ArtifactCache &cache() const
    {
        return options_.cache ? *options_.cache
                              : ArtifactCache::shared();
    }

    /**
     * Validates and compiles `graph`, served through the cache (a hit
     * skips both steps). With caching off, always builds fresh.
     * @throws ark::support::SemaError / CompileError as the direct
     *         validate+compile path would.
     */
    SystemPtr compile(const dg::Graph &graph,
                      const lang::Language &lang) const;

    /**
     * Integrates a batch of shared systems over [t0, t1] on the
     * process-wide BatchRunner. Contract (ordering, determinism,
     * structured failures, lane batching) is sim::simulateEnsemble's.
     */
    std::vector<sim::SimResult> runEnsemble(
        const std::vector<SystemPtr> &systems, double t0, double t1,
        const sim::EnsembleOptions &options = sim::EnsembleOptions{}) const;

    /**
     * Batched SPICE transient sweep over [t0, t1] with step dt from
     * zero initial states, sampling every step: spice::TransientBatch
     * run with `options`, the session ledger when the options carry
     * none, and — with caching on — the session's ArtifactCache as
     * the stepper cache (options.cache is always replaced by the
     * session's choice). Result semantics are TransientBatch::run's:
     * positional ordering, structured per-instance failures,
     * SimError on batch-level misconfiguration, and samples
     * bit-identical with caching on or off.
     */
    std::vector<spice::TransientResult>
    runSweep(const std::vector<const spice::Netlist *> &netlists,
             double t0, double t1, double dt,
             const spice::TransientBatchOptions &options =
                 spice::TransientBatchOptions{},
             SweepStats *stats = nullptr) const;

    /**
     * Snapshot of the process-wide telemetry registry, with this
     * session's cache residency published to the ark.cache.*_cached
     * gauges first. Values are zero until
     * telemetry::setMetricsEnabled(true); see support/telemetry.h for
     * the naming scheme and MetricsSnapshot::str()/json() for the
     * dump formats.
     */
    telemetry::MetricsSnapshot metricsSnapshot() const;

  private:
    SessionOptions options_;
};

} // namespace ark::engine

#endif // ARK_ENGINE_SESSION_H
