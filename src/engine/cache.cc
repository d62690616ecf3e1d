#include "engine/cache.h"

#include <list>
#include <mutex>
#include <unordered_map>

#include "compiler/compiler.h"
#include "expr/cjit.h"
#include "support/faultinject.h"
#include "support/logging.h"
#include "support/telemetry.h"
#include "validator/validator.h"

namespace ark::engine {

using support::cat;

std::string
CacheStats::str() const
{
    return cat("systems ", systemHits, " hit / ", systemMisses,
               " miss / ", systemEvictions, " evicted (", systemsCached,
               " cached); templates ", templateHits, " hit / ",
               templateMisses, " miss / ", templateEvictions,
               " evicted (", templatesCached,
               " cached); steppers ", stepperHits, " hit / ",
               stepperMisses, " miss / ", stepperEvictions, " evicted (",
               steppersCached, " cached); kernels ", kernelHits,
               " hit / ", kernelMisses, " miss / ", kernelEvictions,
               " evicted (", kernelsCached, " cached)");
}

namespace {

/**
 * One bounded LRU map from Fingerprint to a type-erased shared
 * artifact. Callers hold the owning mutex; Shard itself is not
 * synchronized.
 */
class Shard
{
  public:
    /**
     * The three telemetry counters mirror the member tallies: every
     * ++hits/++misses/++evictions below also bumps its registry twin,
     * so CacheStats, the metrics registry, and (through the hit
     * out-param, which TransientBatch reads via the session's stepper
     * cache) the sweep's factorHits/factorMisses all count by one
     * definition — in particular, a FaultInjector-forced miss or
     * evict is a miss or evict in every ledger. The one exception: a
     * miss whose build throws returns no stepper, so the sweep does
     * not count it.
     */
    Shard(std::size_t capacity, telemetry::Counter &hitCounter,
          telemetry::Counter &missCounter,
          telemetry::Counter &evictionCounter)
        : hitCounter_(hitCounter), missCounter_(missCounter),
          evictionCounter_(evictionCounter), capacity_(capacity)
    {
    }

    std::shared_ptr<const void> get(const Fingerprint &key)
    {
        // Deterministic fault injection: a forced miss makes the
        // caller rebuild even when the artifact is resident — tests
        // use it to prove rebuilds are bit-identical to cached serves.
        if (support::FaultInjector::shouldFire(
                support::FaultSite::CacheMiss)) {
            ++misses;
            missCounter_.add();
            return nullptr;
        }
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses;
            missCounter_.add();
            return nullptr;
        }
        ++hits;
        hitCounter_.add();
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return it->second.value;
    }

    /** Inserts and returns the canonical stored pointer (the
     *  incumbent when another thread won the build race). */
    std::shared_ptr<const void> put(const Fingerprint &key,
                                    std::shared_ptr<const void> value)
    {
        if (capacity_ == 0)
            return value;
        auto it = map_.find(key);
        if (it != map_.end()) {
            // Lost race: another thread built the same artifact
            // first. Keep the incumbent (equal bits by contract).
            lru_.splice(lru_.begin(), lru_, it->second.lruPos);
            return it->second.value;
        }
        lru_.push_front(key);
        it = map_.emplace(key, Entry{std::move(value), lru_.begin()})
                 .first;
        std::shared_ptr<const void> stored = it->second.value;
        while (map_.size() > capacity_) {
            map_.erase(lru_.back());
            lru_.pop_back();
            ++evictions;
            evictionCounter_.add();
        }
        // Deterministic fault injection: evict the entry we just
        // inserted, as capacity pressure would — the caller still
        // gets the built artifact; the next lookup must rebuild.
        if (support::FaultInjector::shouldFire(
                support::FaultSite::CacheEvict)) {
            auto inserted = map_.find(key);
            if (inserted != map_.end()) {
                lru_.erase(inserted->second.lruPos);
                map_.erase(inserted);
                ++evictions;
                evictionCounter_.add();
            }
        }
        return stored;
    }

    void clear()
    {
        map_.clear();
        lru_.clear();
    }

    std::size_t size() const { return map_.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    struct Entry
    {
        std::shared_ptr<const void> value;
        std::list<Fingerprint>::iterator lruPos;
    };

    telemetry::Counter &hitCounter_;
    telemetry::Counter &missCounter_;
    telemetry::Counter &evictionCounter_;
    std::size_t capacity_;
    std::unordered_map<Fingerprint, Entry, FingerprintHash> map_;
    std::list<Fingerprint> lru_;
};

} // namespace

struct ArtifactCache::Impl
{
    explicit Impl(const CacheConfig &config)
        : systems(config.maxSystems,
                  telemetry::Registry::shared().counter(
                      "ark.cache.system_hits"),
                  telemetry::Registry::shared().counter(
                      "ark.cache.system_misses"),
                  telemetry::Registry::shared().counter(
                      "ark.cache.system_evictions")),
          templates(config.maxSystems,
                    telemetry::Registry::shared().counter(
                        "ark.cache.template_hits"),
                    telemetry::Registry::shared().counter(
                        "ark.cache.template_misses"),
                    telemetry::Registry::shared().counter(
                        "ark.cache.template_evictions")),
          steppers(config.maxSteppers,
                   telemetry::Registry::shared().counter(
                       "ark.cache.stepper_hits"),
                   telemetry::Registry::shared().counter(
                       "ark.cache.stepper_misses"),
                   telemetry::Registry::shared().counter(
                       "ark.cache.stepper_evictions")),
          kernels(config.maxKernels,
                  telemetry::Registry::shared().counter(
                      "ark.cache.kernel_hits"),
                  telemetry::Registry::shared().counter(
                      "ark.cache.kernel_misses"),
                  telemetry::Registry::shared().counter(
                      "ark.cache.kernel_evictions"))
    {
    }

    mutable std::mutex mutex;
    Shard systems;
    Shard templates;
    Shard steppers;
    Shard kernels;
};

ArtifactCache::ArtifactCache(CacheConfig config)
    : config_(config), impl_(std::make_unique<Impl>(config))
{
}

ArtifactCache::~ArtifactCache() = default;

SystemPtr
ArtifactCache::system(const dg::Graph &graph, const lang::Language &lang)
{
    return system(fingerprintGraph(graph, lang), graph, lang);
}

SystemPtr
ArtifactCache::system(const GraphFingerprint &fp, const dg::Graph &graph,
                      const lang::Language &lang)
{
    // Span arg: 1 = served from cache, 0 = built.
    telemetry::ScopedSpan span("ark.cache.system", 0);
    {
        std::lock_guard lock(impl_->mutex);
        if (auto cached = impl_->systems.get(fp.combined)) {
            span.setArg(1);
            return std::static_pointer_cast<const compiler::OdeSystem>(
                cached);
        }
    }
    // Build outside the lock: validation (ILP) and lowering are the
    // expensive steps the cache exists to amortize, and holding the
    // mutex through them would serialize concurrent misses on
    // *different* graphs. A race on the same graph builds twice;
    // both results are bit-identical and the first insert wins.
    validator::validateOrThrow(graph, lang);
    compiler::TemplatePtr tmpl;
    {
        std::lock_guard lock(impl_->mutex);
        tmpl = std::static_pointer_cast<const compiler::SystemTemplate>(
            impl_->templates.get(fp.structure));
    }
    if (!tmpl) {
        // Structure seen for the first time (or evicted): lower it.
        // Racing lowerings of one structure keep the first template;
        // a graph that does not fit it binds its own (compiler::bind).
        compiler::TemplatePtr lowered = compiler::lowerTemplate(graph, lang);
        std::lock_guard lock(impl_->mutex);
        tmpl = std::static_pointer_cast<const compiler::SystemTemplate>(
            impl_->templates.put(fp.structure, lowered));
    }
    auto built = std::make_shared<const compiler::OdeSystem>(
        compiler::bind(tmpl, graph, lang));
    std::lock_guard lock(impl_->mutex);
    return std::static_pointer_cast<const compiler::OdeSystem>(
        impl_->systems.put(fp.combined, built));
}

StepperPtr
ArtifactCache::stepper(const Fingerprint &key,
                       const std::function<StepperPtr()> &build,
                       bool *hit)
{
    // Span arg: 1 = served from cache, 0 = built.
    telemetry::ScopedSpan span("ark.cache.stepper", 0);
    {
        std::lock_guard lock(impl_->mutex);
        if (auto cached = impl_->steppers.get(key)) {
            if (hit)
                *hit = true;
            span.setArg(1);
            return std::static_pointer_cast<
                const spice::TransientStepper>(cached);
        }
    }
    if (hit)
        *hit = false;
    StepperPtr built = build();
    support::panicIf(built == nullptr,
                     "ArtifactCache: stepper build returned null");
    std::lock_guard lock(impl_->mutex);
    return std::static_pointer_cast<const spice::TransientStepper>(
        impl_->steppers.put(key, built));
}

KernelPtr
ArtifactCache::kernel(const Fingerprint &key,
                      const std::function<KernelPtr()> &build, bool *hit)
{
    // Span arg: 1 = served from cache, 0 = built (or build failed).
    telemetry::ScopedSpan span("ark.cache.kernel", 0);
    {
        std::lock_guard lock(impl_->mutex);
        if (auto cached = impl_->kernels.get(key)) {
            if (hit)
                *hit = true;
            span.setArg(1);
            return std::static_pointer_cast<const expr::JitKernel>(
                cached);
        }
    }
    if (hit)
        *hit = false;
    // Build (emit + compile + dlopen) outside the lock, like the
    // other kinds. A null build is a graceful compile failure — the
    // caller falls back to the interpreted tier — and is not cached:
    // negative results are cheap to rediscover and may heal (e.g. a
    // disarmed fault site or a freed-up disk).
    KernelPtr built = build();
    if (built == nullptr)
        return nullptr;
    std::lock_guard lock(impl_->mutex);
    return std::static_pointer_cast<const expr::JitKernel>(
        impl_->kernels.put(key, built));
}

CacheStats
ArtifactCache::stats() const
{
    std::lock_guard lock(impl_->mutex);
    CacheStats stats;
    stats.systemHits = impl_->systems.hits;
    stats.systemMisses = impl_->systems.misses;
    stats.systemEvictions = impl_->systems.evictions;
    stats.templateHits = impl_->templates.hits;
    stats.templateMisses = impl_->templates.misses;
    stats.templateEvictions = impl_->templates.evictions;
    stats.stepperHits = impl_->steppers.hits;
    stats.stepperMisses = impl_->steppers.misses;
    stats.stepperEvictions = impl_->steppers.evictions;
    stats.kernelHits = impl_->kernels.hits;
    stats.kernelMisses = impl_->kernels.misses;
    stats.kernelEvictions = impl_->kernels.evictions;
    stats.systemsCached = impl_->systems.size();
    stats.templatesCached = impl_->templates.size();
    stats.steppersCached = impl_->steppers.size();
    stats.kernelsCached = impl_->kernels.size();
    return stats;
}

void
ArtifactCache::clear()
{
    std::lock_guard lock(impl_->mutex);
    impl_->systems.clear();
    impl_->templates.clear();
    impl_->steppers.clear();
    impl_->kernels.clear();
}

ArtifactCache &
ArtifactCache::shared()
{
    // Leaked intentionally: ensembles may still hold artifacts during
    // static destruction, and the OS reclaims the memory anyway.
    static ArtifactCache *instance = new ArtifactCache();
    return *instance;
}

} // namespace ark::engine
