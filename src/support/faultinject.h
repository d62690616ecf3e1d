#ifndef ARK_SUPPORT_FAULTINJECT_H
#define ARK_SUPPORT_FAULTINJECT_H

/**
 * @file
 * Deterministic, site-addressed fault injection.
 *
 * Error-recovery code is the least exercised code in a simulator: a
 * forced pivot failure or a NaN mid-tape happens once a month in
 * production and never under test. FaultInjector turns each such
 * hazard into a named site that tier-1 tests can arm on demand:
 *
 *     support::FaultInjector::arm(support::FaultSite::SparseLuPivot);
 *     ... run the engine: the first sparse factorization fails ...
 *     support::FaultInjector::disarmAll();
 *
 * Firing is count-addressed and therefore deterministic: arm(site,
 * skip, fires) makes occurrences [skip, skip+fires) of the site fire
 * and every other occurrence pass through. Tests assert on fired() to
 * prove the fault actually happened (a recovery test that never
 * reached its fault proves nothing).
 *
 * The injector is compiled in always — recovery paths must be
 * testable in every build — but is zero-cost when disarmed: the hot
 * path is one relaxed atomic load of a process-wide flag that is
 * false outside of fault tests. Sites are process-global, so tests
 * that arm sites must not run concurrently with each other; gtest's
 * default serial execution within a binary guarantees that.
 */

#include <atomic>
#include <cstdint>

namespace ark::support {

/** Addressable injection points, one per recovery path under test. */
enum class FaultSite : std::uint8_t
{
    TapeNan = 0,   ///< A lane block's RHS evaluation poisons output
                   ///< 0 of lane 0 with NaN (sim/batch.cc, after the
                   ///< interpreter or the JIT kernel alike).
    SparseLuPivot, ///< Sparse LU factor/refactor fails as singular.
    CacheMiss,     ///< ArtifactCache lookup reports a miss.
    CacheEvict,    ///< ArtifactCache evicts an entry right after insert.
    WorkerTask,    ///< BatchRunner worker task throws mid-job.
    JitCompile,    ///< JIT kernel compilation fails (forces the
                   ///< interpreted-tier fallback path).
    kSiteCount_,   ///< Sentinel; not a site.
};

class FaultInjector
{
  public:
    /**
     * Arms a site: occurrences [skip, skip + fires) fire, counted
     * from this call (arming resets the site's counters).
     */
    static void arm(FaultSite site, std::uint64_t skip = 0,
                    std::uint64_t fires = 1);

    /**
     * Disarms every site. Counters survive until the next arm() so
     * tests can assert fired() after the run completes.
     */
    static void disarmAll();

    /** Occurrences of the site observed since it was last armed. */
    static std::uint64_t seen(FaultSite site);

    /** Occurrences that actually fired since the site was last armed. */
    static std::uint64_t fired(FaultSite site);

    /**
     * The hook the instrumented code calls. One relaxed load when no
     * site is armed anywhere in the process.
     */
    static bool shouldFire(FaultSite site)
    {
        if (!anyArmed_.load(std::memory_order_relaxed))
            return false;
        return fireSlow(site);
    }

  private:
    static bool fireSlow(FaultSite site);

    static std::atomic<bool> anyArmed_;
};

} // namespace ark::support

#endif // ARK_SUPPORT_FAULTINJECT_H
