#ifndef ARK_SPICE_BATCH_H
#define ARK_SPICE_BATCH_H

/**
 * @file
 * Batched SPICE transient execution — the circuit-side twin of the
 * ODE ensemble engine (sim/batch.h), and the one sparse sweep engine:
 * engine::Session::runSweep delegates here.
 *
 * A validation sweep runs hundreds of netlists that are mostly the
 * same circuit with different parameter values (mismatch-sampled
 * instances of one topology). TransientBatch exploits that:
 *
 *  1. every netlist is assembled into a SparseMnaSystem (CSR stamps);
 *  2. instances are grouped by structure (same unknowns, sparsity
 *     patterns, dynamic-row mask, and source placement — see
 *     SparseMnaSystem::sharesStructure);
 *  3. each group's leader factors the trapezoidal companion matrix
 *     (2M/h + K) once — symbolic analysis, pivot order, and fill
 *     pattern; members rebind it with a numeric-only refactorization
 *     (or share the factors outright when their matrix values are
 *     bit-identical), then back-substitute per step;
 *  4. instances execute in parallel on sim::BatchRunner::shared()'s
 *     persistent worker pool via parallelFor — no per-call thread
 *     spawn.
 *
 * Caching is a policy, not a second engine: with
 * TransientBatchOptions::cache set, every leader, rebound-member and
 * standalone factorization is first asked of that StepperCache, so a
 * repeated sweep runs on warm factors. Results are bit-identical with
 * and without a cache.
 *
 * Failures are per-instance and structured (TransientResult::failure
 * with TransientAbort::BadInput / SingularMatrix / NonfiniteState),
 * never exceptions: one singular or diverging netlist does not take
 * down the sweep. Batch-level misconfiguration (dt <= 0, t1 < t0)
 * still throws support::SimError, since it invalidates every instance
 * alike. Any other exception an instance throws is stored, the sweep
 * drains, and the lowest-indexed instance's exception is rethrown.
 *
 * Results are positionally ordered and independent of the thread
 * count; the sparse path matches the serial dense transient to
 * rounding (<= 1e-12 relative, property-tested).
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spice/mna.h"
#include "spice/netlist.h"
#include "support/ledger.h"

namespace ark::spice {

/** Shared immutable factored companion operator. */
using StepperPtr = std::shared_ptr<const TransientStepper>;

/**
 * Where a sparse sweep gets its factored operators. TransientBatch
 * asks before every leader, rebound-member and standalone
 * factorization; a member whose matrix values equal its leader's
 * shares the leader's operator and asks nothing. engine::Session
 * adapts its ArtifactCache to this seam.
 */
class StepperCache
{
  public:
    /**
     * The stepper whose pivot order `pivotSource`'s values chose and
     * whose factors are bound to `bound`'s values (one system for a
     * leader or a standalone build), at step `dt` with the fractional
     * final step `finalH` prepared. Returns a stored operator, or
     * calls `build` and may keep its result; `hit` reports which. A
     * throw from `build` propagates and nothing is kept. Called
     * concurrently from pool workers.
     */
    virtual StepperPtr get(const SparseMnaSystem &pivotSource,
                           const SparseMnaSystem &bound, double dt,
                           double finalH,
                           const std::function<StepperPtr()> &build,
                           bool &hit) = 0;

  protected:
    ~StepperCache() = default; // never owned through this interface
};

/** Controls for a batched transient sweep. */
struct TransientBatchOptions
{
    /**
     * Worker threads; 0 picks the hardware concurrency. Rides the
     * process-wide sim::BatchRunner pool, so SPICE sweeps and ODE
     * ensembles share one set of parked workers.
     */
    unsigned numThreads = 0;

    /**
     * Optional flight recorder (sim::EnsembleOptions::ledger parity):
     * one telemetry::RunLedger::Record per instance at the flush
     * point the sweep already has — the sparse tier, structure group
     * as the block id, sample count, and the structured failure, plus
     * the stepper-cache outcome when `cache` is set. Observation-only;
     * must outlive the call.
     */
    telemetry::RunLedger *ledger = nullptr;

    /**
     * Optional stepper cache the sweep consults before each
     * factorization (see StepperCache). Null builds every operator in
     * the sweep. Results are bit-identical either way. Must outlive
     * the call.
     */
    StepperCache *cache = nullptr;

    /**
     * Netlist nodes whose voltages each result stores, named after
     * SPICE's `.save` card (Netlist::node names; the stored column of
     * a node is its id, so TransientResult::series(id) reads it).
     * Empty (the default) stores every unknown. Saving changes which
     * columns a result holds, never a step, a value or a failure
     * check. An instance whose netlist lacks a named node fails alone
     * with TransientAbort::BadInput.
     */
    std::vector<std::string> save;
};

/** What a batch run did, beyond the per-instance results. */
struct TransientBatchStats
{
    /**
     * Distinct netlist structures the sweep grouped into (each costs
     * one symbolic factorization).
     */
    std::size_t structureGroups = 0;

    /** Factored steppers the options' `cache` served this sweep. */
    std::size_t factorHits = 0;

    /**
     * Factored steppers built through that cache this sweep (symbolic
     * or numeric factorization work); a build that throws counts in
     * neither field. Both stay 0 without a cache.
     */
    std::size_t factorMisses = 0;
};

/**
 * Batched trapezoidal transient runner. Stateless apart from its
 * options; run() may be called concurrently from different
 * TransientBatch instances (the shared pool serializes internally).
 */
class TransientBatch
{
  public:
    explicit TransientBatch(
        TransientBatchOptions options = TransientBatchOptions{})
        : options_(options)
    {
    }

    const TransientBatchOptions &options() const { return options_; }

    /**
     * Runs every netlist over [t0, t1] with step dt from a zero
     * initial state, sampling every step. Outcomes are positionally
     * ordered; per-instance problems land in the corresponding
     * result's structured failure. `stats`, when given, receives a
     * summary of the run.
     * @throws support::SimError for dt <= 0 or t1 < t0 (batch-level
     *         misconfiguration).
     */
    std::vector<TransientResult>
    run(const std::vector<const Netlist *> &netlists, double t0,
        double t1, double dt, TransientBatchStats *stats = nullptr) const;

    /** Convenience overload for owned netlists. */
    std::vector<TransientResult>
    run(const std::vector<Netlist> &netlists, double t0, double t1,
        double dt, TransientBatchStats *stats = nullptr) const;

  private:
    TransientBatchOptions options_;
};

/**
 * Distinct structure groups a sweep of these netlists factors (the
 * same grouping TransientBatch::run applies internally). Assembly
 * only — no factorization; unassemblable netlists count no group.
 * Lets chunked sweeps report the global structure count without
 * running anything.
 */
std::size_t
countStructureGroups(const std::vector<const Netlist *> &netlists);

} // namespace ark::spice

#endif // ARK_SPICE_BATCH_H
