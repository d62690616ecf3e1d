#include "engine/session.h"

#include <functional>
#include <memory>
#include <optional>

#include "compiler/compiler.h"
#include "support/logging.h"
#include "validator/validator.h"

namespace ark::engine {

namespace {

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

} // namespace ark::engine
