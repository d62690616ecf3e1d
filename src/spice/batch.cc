#include "spice/batch.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>

#include "sim/batch.h"
#include "support/error.h"
#include "support/ledger.h"
#include "support/logging.h"
#include "support/telemetry.h"

namespace ark::spice {

using support::cat;
using support::SimError;

namespace {

using CacheOutcome = telemetry::RunLedger::CacheOutcome;

/**
 * Maps an assembly/factorization error to the structured per-instance
 * failure a sweep reports: ErrorKind::Sim (singular companion) ->
 * SingularMatrix, everything else -> BadInput.
 */
TransientFailure
errorFailure(const support::ArkError &error, double t0)
{
    TransientAbort reason = error.kind() == support::ErrorKind::Sim
                                ? TransientAbort::SingularMatrix
                                : TransientAbort::BadInput;
    return TransientFailure{reason, 0, t0, error.message()};
}

void
rethrowFirst(std::vector<std::exception_ptr> &errors)
{
    for (std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

/**
 * Groups assembled systems by shared structure. leaderOf[i] is the
 * group leader's index (or systems.size() for null slots); `leaders`
 * lists one index per group. The scan is quadratic in the number of
 * distinct structures only.
 */
void
groupByStructure(
    const std::vector<std::unique_ptr<SparseMnaSystem>> &systems,
    std::vector<std::size_t> &leaderOf, std::vector<std::size_t> &leaders)
{
    const std::size_t count = systems.size();
    leaderOf.assign(count, count);
    leaders.clear();
    for (std::size_t i = 0; i < count; ++i) {
        if (!systems[i])
            continue;
        for (std::size_t leader : leaders) {
            if (systems[leader]->sharesStructure(*systems[i])) {
                leaderOf[i] = leader;
                break;
            }
        }
        if (leaderOf[i] == count) {
            leaders.push_back(i);
            leaderOf[i] = i;
        }
    }
}

/**
 * The unknowns of the nodes `names` in `netlist`, ascending: a node's
 * voltage is the unknown numbered by its id.
 * @throws SemaError for a name the netlist lacks.
 */
std::vector<std::size_t>
savedUnknowns(const Netlist &netlist, const std::vector<std::string> &names)
{
    std::vector<std::size_t> unknowns;
    unknowns.reserve(names.size());
    for (const std::string &name : names)
        unknowns.push_back(static_cast<std::size_t>(netlist.node(name)));
    std::sort(unknowns.begin(), unknowns.end());
    unknowns.erase(std::unique(unknowns.begin(), unknowns.end()),
                   unknowns.end());
    return unknowns;
}

/** A freshly factored operator for `system` with its fractional final
 *  step (finalStepSize) prepared, so every instance that shares or
 *  rebinds it steps the whole grid without a one-off factorization. */
StepperPtr
preparedStepper(const SparseMnaSystem &system, double dt, double finalH)
{
    auto stepper = std::make_shared<TransientStepper>(system, dt);
    stepper->prepareFinalStep(system, finalH);
    return stepper;
}

} // namespace

std::size_t
countStructureGroups(const std::vector<const Netlist *> &netlists)
{
    std::vector<std::unique_ptr<SparseMnaSystem>> systems;
    systems.reserve(netlists.size());
    for (const Netlist *netlist : netlists) {
        support::panicIf(netlist == nullptr,
                         "countStructureGroups: null netlist");
        try {
            systems.push_back(std::make_unique<SparseMnaSystem>(*netlist));
        } catch (const support::ArkError &) {
            systems.push_back(nullptr); // unassemblable: no group
        }
    }
    std::vector<std::size_t> leaderOf, leaders;
    groupByStructure(systems, leaderOf, leaders);
    return leaders.size();
}

std::vector<TransientResult>
TransientBatch::run(const std::vector<const Netlist *> &netlists,
                    double t0, double t1, double dt,
                    TransientBatchStats *stats) const
{
    if (stats)
        *stats = TransientBatchStats{};
    if (dt <= 0.0) {
        throw SimError(
            cat("TransientBatch: dt must be positive, got ", dt));
    }
    if (t1 < t0) {
        throw SimError(cat("TransientBatch: t1 (", t1, ") precedes t0 (",
                           t0, ")"));
    }
    const std::size_t count = netlists.size();
    std::vector<TransientResult> results(count);
    if (count == 0)
        return results;
    for (const Netlist *netlist : netlists)
        support::panicIf(netlist == nullptr,
                         "TransientBatch: null netlist");

    std::vector<std::exception_ptr> errors(count);
    const std::uint64_t ledgerRun =
        options_.ledger != nullptr
            ? options_.ledger->beginRun(
                  telemetry::RunLedger::Workload::Spice, count)
            : 0;

    // Phase 1: resolve the save list and assemble every netlist
    // (cheap, value-independent structure). A missing saved node and
    // an assembly reject land as BadInput failures.
    std::vector<std::unique_ptr<SparseMnaSystem>> systems(count);
    std::vector<std::vector<std::size_t>> saved(count);
    for (std::size_t i = 0; i < count; ++i) {
        try {
            saved[i] = savedUnknowns(*netlists[i], options_.save);
            systems[i] = std::make_unique<SparseMnaSystem>(*netlists[i]);
        } catch (const support::ArkError &error) {
            results[i].failure = errorFailure(error, t0);
        }
    }

    // Phase 2: group instances by shared structure.
    std::vector<std::size_t> leaderOf, leaders;
    groupByStructure(systems, leaderOf, leaders);
    std::vector<std::size_t> groupSize(count, 0);
    for (std::size_t i = 0; i < count; ++i)
        if (leaderOf[i] < count)
            ++groupSize[leaderOf[i]];
    if (stats)
        stats->structureGroups = leaders.size();
    if (telemetry::metricsEnabled()) {
        static telemetry::Counter &sweeps =
            telemetry::Registry::shared().counter("ark.spice.sweeps");
        static telemetry::Counter &sweepInstances =
            telemetry::Registry::shared().counter(
                "ark.spice.sweep_instances");
        static telemetry::Counter &groups =
            telemetry::Registry::shared().counter("ark.spice.groups");
        static telemetry::Histogram &groupSizes =
            telemetry::Registry::shared().histogram(
                "ark.spice.group_size");
        sweeps.add();
        sweepInstances.add(count);
        groups.add(leaders.size());
        for (std::size_t leader : leaders)
            groupSizes.record(groupSize[leader]);
    }
    telemetry::ScopedSpan sweepSpan("ark.spice.sweep", count);

    // Phase 3: each group leader's companion matrix is factored
    // exactly once — the symbolic analysis (and, for value-identical
    // members, the numeric factorization) the whole group reuses.
    // Factorization happens lazily inside the worker jobs under a
    // per-leader once-flag, so heterogeneous sweeps (many singleton
    // groups) factor concurrently instead of serializing up front. A
    // leader whose own values are singular leaves no shared stepper;
    // members then factor individually.
    const double finalH = finalStepSize(t0, t1, dt);
    std::vector<StepperPtr> leaderStepper(count);
    std::vector<std::unique_ptr<std::once_flag>> leaderOnce(count);
    for (std::size_t leader : leaders)
        leaderOnce[leader] = std::make_unique<std::once_flag>();

    // Every factorization goes through `resolve`: straight to `build`
    // without a cache, else a cache lookup keyed by the pivot source
    // and the bound values (cached factors are then the bits `build`
    // computes). Each instance's outcome lands in its own slot for the
    // ledger; a leader's lands in leaderOutcome, which members sharing
    // its operator inherit.
    std::atomic<std::size_t> factorHits{0};
    std::atomic<std::size_t> factorMisses{0};
    std::vector<CacheOutcome> cacheOutcome(count, CacheOutcome::None);
    std::vector<CacheOutcome> leaderOutcome(count, CacheOutcome::None);
    auto resolve = [&](const SparseMnaSystem &pivotSource,
                       const SparseMnaSystem &bound, CacheOutcome &outcome,
                       const std::function<StepperPtr()> &build) {
        if (options_.cache == nullptr)
            return build();
        bool hit = false;
        StepperPtr stepper =
            options_.cache->get(pivotSource, bound, dt, finalH, build, hit);
        ++(hit ? factorHits : factorMisses);
        outcome = hit ? CacheOutcome::Hit : CacheOutcome::Miss;
        return stepper;
    };

    // Phase 4: per-instance transient on the shared worker pool.
    sim::BatchRunner::shared().parallelFor(
        count, options_.numThreads, [&](std::size_t i) {
            if (results[i].failure.has_value())
                return; // assembly already failed
            const SparseMnaSystem &system = *systems[i];
            const std::size_t leader = leaderOf[i];
            const SparseMnaSystem &leaderSystem = *systems[leader];
            try {
                std::call_once(*leaderOnce[leader], [&] {
                    try {
                        leaderStepper[leader] = resolve(
                            leaderSystem, leaderSystem,
                            leaderOutcome[leader], [&] {
                                return preparedStepper(leaderSystem, dt,
                                                       finalH);
                            });
                    } catch (...) {
                        // Leader factorization failed (singular, out
                        // of memory, ...): leave no shared stepper;
                        // each member factors on its own and reports
                        // whatever recurs through its own handler.
                    }
                });
                const StepperPtr &shared = leaderStepper[leader];
                StepperPtr stepper;
                if (shared != nullptr &&
                    system.sharesMatrixValues(leaderSystem)) {
                    // Bit-identical matrices: share the leader's
                    // factors outright (solve is const/thread-safe).
                    stepper = shared;
                    cacheOutcome[i] = leaderOutcome[leader];
                } else if (shared != nullptr) {
                    // Same structure, different values: copy the
                    // symbolic skeleton and refactor numerically.
                    stepper = resolve(
                        leaderSystem, system, cacheOutcome[i],
                        [&]() -> StepperPtr {
                            auto rebound =
                                std::make_shared<TransientStepper>(*shared);
                            rebound->rebind(system);
                            return rebound;
                        });
                } else {
                    stepper = resolve(system, system, cacheOutcome[i], [&] {
                        return preparedStepper(system, dt, finalH);
                    });
                }
                results[i] = stepper->run(system, t0, t1, {}, saved[i]);
            } catch (const support::ArkError &error) {
                results[i].failure = errorFailure(error, t0);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    if (stats) {
        stats->factorHits = factorHits.load();
        stats->factorMisses = factorMisses.load();
    }
    if (options_.ledger != nullptr) {
        // One record per instance: accepted steps are the samples
        // after the initial state, or the failure's step count when it
        // stopped early. Unassemblable slots stand alone.
        for (std::size_t i = 0; i < count; ++i) {
            if (errors[i])
                continue;
            const TransientResult &result = results[i];
            telemetry::RunLedger::Record record;
            record.runId = ledgerRun;
            record.index = i;
            record.workload = telemetry::RunLedger::Workload::Spice;
            record.tier = telemetry::RunLedger::Tier::Sparse;
            record.blockId = leaderOf[i] < count ? leaderOf[i] : i;
            record.lanes = leaderOf[i] < count ? groupSize[leaderOf[i]] : 1;
            record.stepsAccepted =
                result.ok() ? (result.size() > 0 ? result.size() - 1 : 0)
                            : result.failure->step;
            record.cache = cacheOutcome[i];
            record.ok = result.ok();
            if (result.failure.has_value()) {
                record.failureReason =
                    transientAbortName(result.failure->reason);
                record.failureMessage = result.failure->message;
            }
            options_.ledger->append(std::move(record));
        }
    }
    rethrowFirst(errors);
    return results;
}

std::vector<TransientResult>
TransientBatch::run(const std::vector<Netlist> &netlists, double t0,
                    double t1, double dt,
                    TransientBatchStats *stats) const
{
    std::vector<const Netlist *> pointers;
    pointers.reserve(netlists.size());
    for (const Netlist &netlist : netlists)
        pointers.push_back(&netlist);
    return run(pointers, t0, t1, dt, stats);
}

} // namespace ark::spice
