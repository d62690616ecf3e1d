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
 * Sessions are cheap value objects (an options struct and a cache
 * pointer); copy them freely. All methods are const and thread-safe.
 * SessionOptions::caching = false bypasses the cache entirely and
 * reproduces the historical per-call build paths bit-for-bit —
 * ablation benchmarks and differential tests toggle only that flag.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

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

/**
 * Bounded retry-with-degradation policy for the supervised run
 * overloads (runEnsemble/runSweep with a policy argument).
 *
 * The retry ladder, in order, per failed instance:
 *
 *  - ODE ensembles: an instance whose first attempt ends in
 *    Diverged, Fault, or BudgetExhausted is re-run. Attempt 2 re-runs
 *    it scalar (laneBatching off) when retryScalar is set — the
 *    canonical recovery from a lane-block fault, bit-identical to a
 *    clean scalar run of that instance. Attempts 3..maxAttempts
 *    additionally degrade when relaxOnRetry is set: each further
 *    attempt multiplies dt by dtFactor and absTol/relTol by tolFactor
 *    (cumulatively). Cancelled and DeadlineExceeded instances are
 *    never retried — the caller asked for the stop.
 *
 *  - SPICE sweeps: an instance whose attempt ends in SingularMatrix
 *    falls back to the dense MnaSystem transient (denseFallback) —
 *    dense partial-pivoting LU succeeds on systems whose sparse
 *    refactorization collapsed; one whose attempt ends in
 *    NonfiniteState is re-run sparse with dt scaled by dtFactor per
 *    retry when relaxOnRetry is set. Cancelled / DeadlineExceeded /
 *    BadInput are never retried.
 *
 * maxAttempts = 1 disables the supervisor entirely: the supervised
 * overloads then behave bit-identically to the plain ones. Every
 * retry and fallback taken is recorded in RunReport — nothing
 * degrades silently.
 */
struct RunPolicy
{
    /** Total attempts per instance (first run included); >= 1. */
    int maxAttempts = 1;

    /** Ensemble: re-run failed instances with laneBatching off. */
    bool retryScalar = true;

    /** Enable the degradation rungs (dt/tolerance scaling). */
    bool relaxOnRetry = false;

    /** Step scale per degraded attempt (dt *= dtFactor). */
    double dtFactor = 0.5;

    /** Tolerance scale per degraded attempt (absTol/relTol *= ...). */
    double tolFactor = 10.0;

    /** Sweep: SingularMatrix failures re-run on the dense path. */
    bool denseFallback = true;
};

/**
 * Per-run provenance of a supervised run: which instances failed,
 * what was retried, what recovered. The counters account exactly for
 * every retry/fallback taken (one increment per re-run instance per
 * attempt), so a report with all-zero retry counters certifies the
 * run was clean.
 */
struct RunReport
{
    /** One recovery action applied to one instance on one attempt. */
    enum class Action : std::uint8_t {
        ScalarRetry,   ///< Re-run with laneBatching off.
        RelaxedRetry,  ///< Re-run with degraded dt/tolerances.
        DenseFallback, ///< Sparse SingularMatrix re-run densely.
    };

    /** History of one instance that failed its first attempt. */
    struct InstanceRecord
    {
        std::size_t index = 0; ///< Position in the input batch.
        int attempts = 1;      ///< Attempts consumed (first included).
        std::vector<Action> actions; ///< Ladder rungs taken, in order.
        bool recovered = false;      ///< Final attempt succeeded.
        std::string finalError; ///< Last failure message when not.
    };

    std::size_t instances = 0;            ///< Batch size.
    std::size_t firstAttemptFailures = 0; ///< Failed the initial run.
    std::size_t recovered = 0;            ///< Healthy after retries.
    std::size_t unrecovered = 0;  ///< Still failed after the ladder.
    std::size_t scalarRetries = 0;  ///< ScalarRetry actions taken.
    std::size_t relaxedRetries = 0; ///< RelaxedRetry actions taken.
    std::size_t denseFallbacks = 0; ///< DenseFallback actions taken.
    std::size_t budgetHits = 0;   ///< Final results with BudgetExhausted.
    std::size_t deadlineHits = 0; ///< Final results with DeadlineExceeded.
    std::size_t cancelled = 0;    ///< Final results with Cancelled.
    std::vector<InstanceRecord> records; ///< One per failed instance.

    /**
     * Flight recorder attached by the supervisor: per-instance,
     * per-attempt provenance records (tier, lane width, block, step
     * counts, cache outcome, retry action, structured failure),
     * exportable with RunLedger::json(). Created by the supervised
     * overloads when neither the run options nor the session carry
     * their own ledger; null when an external ledger captured the
     * records instead.
     */
    std::shared_ptr<telemetry::RunLedger> ledger;
};

/** What a SPICE sweep did: structure groups and stepper-cache
 *  hits/misses (both 0 with caching off or on the dense path). */
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
     * Supervised ensemble run: like runEnsemble above, but failed
     * instances climb the RunPolicy retry ladder (scalar re-run, then
     * optional dt/tolerance degradation) and `report`, when given,
     * receives exact per-instance provenance. Internal faults are
     * captured as structured AbortReason::Fault failures (and thus
     * become retryable) whenever policy.maxAttempts > 1; with
     * maxAttempts == 1 this overload is bit-identical to the plain
     * one. Results of instances that succeed on their first attempt
     * are bit-identical to an unsupervised run; recovered results
     * state exactly which degradations produced them.
     */
    std::vector<sim::SimResult> runEnsemble(
        const std::vector<SystemPtr> &systems, double t0, double t1,
        const sim::EnsembleOptions &options, const RunPolicy &policy,
        RunReport *report = nullptr) const;

    /**
     * Batched SPICE transient sweep over [t0, t1] with step dt from
     * zero initial states, sampling every step: spice::TransientBatch
     * run with `options`, the session ledger when the options carry
     * none, and — with caching on — the session's ArtifactCache as
     * the stepper cache (options.cache is always replaced by the
     * session's choice). Result semantics are TransientBatch::run's:
     * positional ordering, structured per-instance failures,
     * SimError on batch-level misconfiguration, and samples
     * bit-identical with caching on or off. options.sparse = false
     * runs the dense ablation path, which never consults the cache.
     */
    std::vector<spice::TransientResult>
    runSweep(const std::vector<const spice::Netlist *> &netlists,
             double t0, double t1, double dt,
             const spice::TransientBatchOptions &options =
                 spice::TransientBatchOptions{},
             SweepStats *stats = nullptr) const;

    /**
     * Supervised sweep: like runSweep above, but SingularMatrix
     * failures fall back to the dense transient path and (with
     * relaxOnRetry) NonfiniteState failures re-run sparse at a
     * degraded dt, per RunPolicy. `report`, when given, receives
     * exact per-instance provenance. With policy.maxAttempts == 1
     * this overload is bit-identical to the plain one.
     */
    std::vector<spice::TransientResult>
    runSweep(const std::vector<const spice::Netlist *> &netlists,
             double t0, double t1, double dt,
             const spice::TransientBatchOptions &options,
             const RunPolicy &policy, RunReport *report = nullptr,
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
