#include "engine/session.h"

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "compiler/compiler.h"
#include "support/error.h"
#include "support/logging.h"
#include "validator/validator.h"

namespace ark::engine {

namespace {

bool
deadlinePassed(
    const std::optional<std::chrono::steady_clock::time_point> &deadline)
{
    return deadline &&
           std::chrono::steady_clock::now() >= *deadline;
}

/**
 * The session's ArtifactCache as TransientBatch's stepper policy.
 * Entries are keyed by stepperKey: the bound system's pattern and
 * values plus the pivot source's values, so a served stepper holds
 * exactly the bits an uncached sweep would build.
 */
class CachedSteppers final : public spice::StepperCache
{
  public:
    explicit CachedSteppers(ArtifactCache &cache) : cache_(cache) {}

    StepperPtr
    get(const spice::SparseMnaSystem &pivotSource,
        const spice::SparseMnaSystem &bound, double dt, double finalH,
        const std::function<StepperPtr()> &build, bool &hit) override
    {
        const MnaFingerprint fp = fingerprintMna(bound);
        const Fingerprint pivotValues =
            &pivotSource == &bound ? fp.values
                                   : fingerprintMna(pivotSource).values;
        return cache_.stepper(
            stepperKey(fp, pivotValues, fp.values, dt, finalH), build,
            &hit);
    }

  private:
    ArtifactCache &cache_;
};

/** True when a supervised ensemble retry can change the outcome. */
bool
retryableSimFailure(const sim::SimFailure &failure)
{
    return failure.reason == sim::AbortReason::Diverged ||
           failure.reason == sim::AbortReason::Fault ||
           failure.reason == sim::AbortReason::BudgetExhausted;
}

/** Tallies the terminal failure mix of a finished batch. */
void
countSimOutcomes(const std::vector<sim::SimResult> &results,
                 RunReport &report)
{
    for (const sim::SimResult &result : results) {
        if (!result.failure)
            continue;
        switch (result.failure->reason) {
        case sim::AbortReason::BudgetExhausted: ++report.budgetHits; break;
        case sim::AbortReason::DeadlineExceeded:
            ++report.deadlineHits;
            break;
        case sim::AbortReason::Cancelled: ++report.cancelled; break;
        default: break;
        }
    }
}

void
countSweepOutcomes(const std::vector<spice::TransientResult> &results,
                   RunReport &report)
{
    for (const spice::TransientResult &result : results) {
        if (!result.failure)
            continue;
        switch (result.failure->reason) {
        case spice::TransientAbort::DeadlineExceeded:
            ++report.deadlineHits;
            break;
        case spice::TransientAbort::Cancelled: ++report.cancelled; break;
        default: break;
        }
    }
}

/**
 * Publishes a supervised run's final tallies to the registry. The
 * report is the source of truth (exactly one increment per action
 * taken), so the registry counters inherit its definitions.
 */
void
flushReportCounters(const RunReport &report)
{
    if (!telemetry::metricsEnabled())
        return;
    static telemetry::Counter &scalarRetries =
        telemetry::Registry::shared().counter(
            "ark.session.scalar_retries");
    static telemetry::Counter &relaxedRetries =
        telemetry::Registry::shared().counter(
            "ark.session.relaxed_retries");
    static telemetry::Counter &denseFallbacks =
        telemetry::Registry::shared().counter(
            "ark.session.dense_fallbacks");
    static telemetry::Counter &budgetHits =
        telemetry::Registry::shared().counter("ark.session.budget_hits");
    static telemetry::Counter &deadlineHits =
        telemetry::Registry::shared().counter(
            "ark.session.deadline_hits");
    static telemetry::Counter &cancelled =
        telemetry::Registry::shared().counter("ark.session.cancelled");
    scalarRetries.add(report.scalarRetries);
    relaxedRetries.add(report.relaxedRetries);
    denseFallbacks.add(report.denseFallbacks);
    budgetHits.add(report.budgetHits);
    deadlineHits.add(report.deadlineHits);
    cancelled.add(report.cancelled);
}

} // namespace

telemetry::MetricsSnapshot
Session::metricsSnapshot() const
{
    telemetry::Registry &registry = telemetry::Registry::shared();
    // Residency gauges come from CacheStats at snapshot time (the
    // cache cannot publish sizes itself without registry writes under
    // its own lock on every mutation).
    static telemetry::Gauge &systemsCached =
        registry.gauge("ark.cache.systems_cached");
    static telemetry::Gauge &templatesCached =
        registry.gauge("ark.cache.templates_cached");
    static telemetry::Gauge &steppersCached =
        registry.gauge("ark.cache.steppers_cached");
    const CacheStats cacheStats = cache().stats();
    systemsCached.set(static_cast<double>(cacheStats.systemsCached));
    templatesCached.set(static_cast<double>(cacheStats.templatesCached));
    steppersCached.set(static_cast<double>(cacheStats.steppersCached));
    return registry.snapshot();
}

SystemPtr
Session::compile(const dg::Graph &graph, const lang::Language &lang) const
{
    if (!options_.caching) {
        validator::validateOrThrow(graph, lang);
        return std::make_shared<const compiler::OdeSystem>(
            compiler::compile(graph, lang));
    }
    return cache().system(graph, lang);
}

std::vector<sim::SimResult>
Session::runEnsemble(const std::vector<SystemPtr> &systems, double t0,
                     double t1, const sim::EnsembleOptions &options) const
{
    static telemetry::Histogram &ensembleNs =
        telemetry::Registry::shared().histogram("ark.session.ensemble_ns");
    telemetry::ScopedSpan span("ark.session.ensemble", systems.size());
    telemetry::ScopedTimer timer(ensembleNs);
    std::vector<const compiler::OdeSystem *> pointers;
    pointers.reserve(systems.size());
    for (const SystemPtr &system : systems) {
        support::panicIf(system == nullptr,
                         "Session::runEnsemble: null system");
        pointers.push_back(system.get());
    }
    // The session-level flight recorder applies unless the per-run
    // options brought their own (observation-only either way).
    sim::EnsembleOptions effective = options;
    if (effective.ledger == nullptr)
        effective.ledger = options_.ledger;
    return sim::simulateEnsemble(pointers, t0, t1, effective);
}

std::vector<spice::TransientResult>
Session::runSweep(const std::vector<const spice::Netlist *> &netlists,
                  double t0, double t1, double dt,
                  const spice::TransientBatchOptions &options,
                  SweepStats *stats) const
{
    static telemetry::Histogram &sweepNs =
        telemetry::Registry::shared().histogram("ark.session.sweep_ns");
    telemetry::ScopedSpan span("ark.session.sweep", netlists.size());
    telemetry::ScopedTimer timer(sweepNs);
    // The session-level flight recorder applies unless the per-run
    // options brought their own (observation-only either way).
    spice::TransientBatchOptions effective = options;
    if (effective.ledger == nullptr)
        effective.ledger = options_.ledger;
    // The caching flag alone decides whether factors are looked up.
    std::optional<CachedSteppers> steppers;
    effective.cache =
        options_.caching ? &steppers.emplace(cache()) : nullptr;
    return spice::TransientBatch(effective).run(netlists, t0, t1, dt,
                                                stats);
}

std::vector<sim::SimResult>
Session::runEnsemble(const std::vector<SystemPtr> &systems, double t0,
                     double t1, const sim::EnsembleOptions &options,
                     const RunPolicy &policy, RunReport *report) const
{
    RunReport local;
    RunReport &rep = report ? *report : local;
    rep = RunReport{};
    rep.instances = systems.size();

    // Flight-recorder resolution: an explicitly configured ledger
    // (run options first, then the session) captures the records;
    // otherwise a reporting supervised run gets its own, attached to
    // the report so callers can export it without pre-wiring one.
    sim::EnsembleOptions opts = options;
    if (opts.ledger == nullptr)
        opts.ledger = options_.ledger;
    if (opts.ledger == nullptr && report != nullptr) {
        rep.ledger = std::make_shared<telemetry::RunLedger>();
        opts.ledger = rep.ledger.get();
    }
    telemetry::RunLedger *ledger = opts.ledger;

    if (policy.maxAttempts <= 1) {
        // Supervisor off: bit-identical to the plain overload,
        // including the exception-rethrow contract.
        std::vector<sim::SimResult> results =
            runEnsemble(systems, t0, t1, opts);
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].ok())
                continue;
            ++rep.firstAttemptFailures;
            ++rep.unrecovered;
            RunReport::InstanceRecord record;
            record.index = i;
            record.finalError = results[i].failure->message;
            rep.records.push_back(std::move(record));
        }
        countSimOutcomes(results, rep);
        flushReportCounters(rep);
        return results;
    }

    // First attempt: the normal batch, but with faults captured as
    // structured failures so they become retryable data.
    sim::EnsembleOptions firstOptions = opts;
    firstOptions.structuredFaults = true;
    std::vector<sim::SimResult> results =
        runEnsemble(systems, t0, t1, firstOptions);

    // One record per first-attempt failure; only the retryable subset
    // climbs the ladder.
    std::vector<std::size_t> recordOf(results.size(), results.size());
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok())
            continue;
        ++rep.firstAttemptFailures;
        recordOf[i] = rep.records.size();
        RunReport::InstanceRecord record;
        record.index = i;
        rep.records.push_back(std::move(record));
        if (retryableSimFailure(*results[i].failure))
            pending.push_back(i);
    }

    const double baseDt =
        options.sim.dt > 0.0 ? options.sim.dt : (t1 - t0) / 1000.0;
    for (int attempt = 2;
         attempt <= policy.maxAttempts && !pending.empty(); ++attempt) {
        if (options.stop.stop_requested() ||
            deadlinePassed(options.deadline))
            break; // the caller asked for the stop: no more attempts

        // Rung 0 is the pure scalar re-run (when retryScalar); each
        // further rung degrades dt and tolerances cumulatively.
        const int rung = policy.retryScalar ? attempt - 2 : attempt - 1;
        const bool relaxed = policy.relaxOnRetry && rung >= 1;
        sim::EnsembleOptions retryOptions = opts;
        retryOptions.structuredFaults = true;
        retryOptions.progress = {}; // progress ticked on attempt 1
        // Retry batches record into a scratch ledger whose records are
        // remapped below: the batch engine indexes the compacted retry
        // batch, the ledger speaks original batch positions.
        telemetry::RunLedger retryLedger;
        retryOptions.ledger = ledger != nullptr ? &retryLedger : nullptr;
        if (policy.retryScalar)
            retryOptions.laneBatching = false;
        if (relaxed) {
            double dtScale = 1.0, tolScale = 1.0;
            for (int r = 0; r < rung; ++r) {
                dtScale *= policy.dtFactor;
                tolScale *= policy.tolFactor;
            }
            retryOptions.sim.dt = baseDt * dtScale;
            retryOptions.sim.absTol = options.sim.absTol * tolScale;
            retryOptions.sim.relTol = options.sim.relTol * tolScale;
        }

        std::vector<SystemPtr> retrySystems;
        retrySystems.reserve(pending.size());
        for (std::size_t index : pending)
            retrySystems.push_back(systems[index]);
        std::vector<sim::SimResult> retried =
            runEnsemble(retrySystems, t0, t1, retryOptions);

        if (ledger != nullptr) {
            // Re-home the scratch records: original batch position,
            // the main run's id, and the rung that produced them.
            // Tier/width/block provenance stays as the engine wrote
            // it.
            for (telemetry::RunLedger::Record rec :
                 retryLedger.records()) {
                rec.runId = ledger->lastRunId();
                rec.index = pending[rec.index];
                rec.attempt = attempt;
                rec.action =
                    relaxed
                        ? telemetry::RunLedger::RetryAction::RelaxedRetry
                        : telemetry::RunLedger::RetryAction::ScalarRetry;
                ledger->append(std::move(rec));
            }
        }

        std::vector<std::size_t> still;
        for (std::size_t j = 0; j < pending.size(); ++j) {
            const std::size_t index = pending[j];
            RunReport::InstanceRecord &record =
                rep.records[recordOf[index]];
            ++record.attempts;
            if (relaxed) {
                record.actions.push_back(
                    RunReport::Action::RelaxedRetry);
                ++rep.relaxedRetries;
            } else {
                record.actions.push_back(RunReport::Action::ScalarRetry);
                ++rep.scalarRetries;
            }
            results[index] = std::move(retried[j]);
            if (!results[index].ok() &&
                retryableSimFailure(*results[index].failure))
                still.push_back(index);
        }
        pending = std::move(still);
    }

    for (RunReport::InstanceRecord &record : rep.records) {
        record.recovered = results[record.index].ok();
        if (record.recovered)
            ++rep.recovered;
        else {
            ++rep.unrecovered;
            record.finalError = results[record.index].failure->message;
        }
    }
    countSimOutcomes(results, rep);
    flushReportCounters(rep);
    return results;
}

std::vector<spice::TransientResult>
Session::runSweep(const std::vector<const spice::Netlist *> &netlists,
                  double t0, double t1, double dt,
                  const spice::TransientBatchOptions &options,
                  const RunPolicy &policy, RunReport *report,
                  SweepStats *stats) const
{
    RunReport local;
    RunReport &rep = report ? *report : local;
    rep = RunReport{};
    rep.instances = netlists.size();

    // Flight-recorder resolution: same precedence as the supervised
    // ensemble (run options, session, then a report-owned ledger).
    spice::TransientBatchOptions opts = options;
    if (opts.ledger == nullptr)
        opts.ledger = options_.ledger;
    if (opts.ledger == nullptr && report != nullptr) {
        rep.ledger = std::make_shared<telemetry::RunLedger>();
        opts.ledger = rep.ledger.get();
    }
    telemetry::RunLedger *ledger = opts.ledger;

    std::vector<spice::TransientResult> results =
        runSweep(netlists, t0, t1, dt, opts, stats);

    if (policy.maxAttempts <= 1) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results[i].failure)
                continue;
            ++rep.firstAttemptFailures;
            ++rep.unrecovered;
            RunReport::InstanceRecord record;
            record.index = i;
            record.finalError = results[i].failure->message;
            rep.records.push_back(std::move(record));
        }
        countSweepOutcomes(results, rep);
        flushReportCounters(rep);
        return results;
    }

    // SingularMatrix falls back to the dense transient (partial
    // pivoting succeeds where the sparse static-order refactorization
    // collapsed); NonfiniteState re-runs sparse at a degraded dt when
    // relaxOnRetry allows it. Retries are rare, so they run serially
    // on the calling thread.
    auto sweepRetryable = [&](const spice::TransientFailure &failure) {
        if (failure.reason == spice::TransientAbort::SingularMatrix)
            return policy.denseFallback;
        if (failure.reason == spice::TransientAbort::NonfiniteState)
            return policy.relaxOnRetry;
        return false;
    };

    std::vector<std::size_t> recordOf(results.size(), results.size());
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].failure)
            continue;
        ++rep.firstAttemptFailures;
        recordOf[i] = rep.records.size();
        RunReport::InstanceRecord record;
        record.index = i;
        rep.records.push_back(std::move(record));
        if (sweepRetryable(*results[i].failure))
            pending.push_back(i);
    }

    const spice::TransientControl control{options.stop, options.deadline};
    for (int attempt = 2;
         attempt <= policy.maxAttempts && !pending.empty(); ++attempt) {
        if (options.stop.stop_requested() ||
            deadlinePassed(options.deadline))
            break;
        double relaxedDt = dt;
        for (int r = 0; r < attempt - 1; ++r)
            relaxedDt *= policy.dtFactor;

        std::vector<std::size_t> still;
        for (std::size_t index : pending) {
            RunReport::InstanceRecord &record =
                rep.records[recordOf[index]];
            ++record.attempts;
            const spice::TransientAbort reason =
                results[index].failure->reason;
            const bool denseRetry =
                reason == spice::TransientAbort::SingularMatrix;
            try {
                if (denseRetry) {
                    record.actions.push_back(
                        RunReport::Action::DenseFallback);
                    ++rep.denseFallbacks;
                    spice::MnaSystem dense(*netlists[index]);
                    results[index] = spice::transient(dense, t0, t1, dt,
                                                      {}, control);
                } else {
                    record.actions.push_back(
                        RunReport::Action::RelaxedRetry);
                    ++rep.relaxedRetries;
                    spice::SparseMnaSystem sparse(*netlists[index]);
                    results[index] = spice::transient(
                        sparse, t0, t1, relaxedDt, {}, control);
                }
            } catch (const support::ArkError &error) {
                results[index].failure =
                    spice::detail::errorFailure(error, t0);
            }
            if (ledger != nullptr) {
                // Serial retries bypass the batch engine, so the
                // supervisor writes their records itself: standalone
                // block, no cache consult, tier per the rung taken.
                telemetry::RunLedger::Record rec =
                    spice::detail::ledgerRecord(
                        results[index], ledger->lastRunId(), index,
                        denseRetry ? telemetry::RunLedger::Tier::Dense
                                   : telemetry::RunLedger::Tier::Sparse);
                rec.attempt = attempt;
                rec.action =
                    denseRetry
                        ? telemetry::RunLedger::RetryAction::DenseFallback
                        : telemetry::RunLedger::RetryAction::RelaxedRetry;
                ledger->append(std::move(rec));
            }
            if (results[index].failure &&
                sweepRetryable(*results[index].failure))
                still.push_back(index);
        }
        pending = std::move(still);
    }

    for (RunReport::InstanceRecord &record : rep.records) {
        record.recovered = !results[record.index].failure.has_value();
        if (record.recovered)
            ++rep.recovered;
        else {
            ++rep.unrecovered;
            record.finalError = results[record.index].failure->message;
        }
    }
    countSweepOutcomes(results, rep);
    flushReportCounters(rep);
    return results;
}

} // namespace ark::engine
