#ifndef ARK_APPS_EXPERIMENTS_H
#define ARK_APPS_EXPERIMENTS_H

/**
 * @file
 * Shared experiment runners regenerating the paper's evaluation
 * artifacts (Figures 2, 4, 11; Table 1; the §4.5 SPICE
 * cross-validation). Bench binaries and integration tests both call
 * these, so the numbers the bench binaries print come from exactly
 * the code under test; ROADMAP.md (Open item 3) sets them against the
 * paper's.
 *
 * The two sweeps, runMaxcutSims and runSpiceValidation, run their
 * per-trial front end (random draw, graph build, compile, netlist
 * mapping) one trial per job on sim::BatchRunner::shared()'s worker
 * pool. Each trial draws from its own Rng(seedBase + trial) and its
 * results are stored by trial index, so every output is independent
 * of the thread count.
 */

#include <cstdint>
#include <vector>

#include "apps/image.h"
#include "lang/language.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/tln.h"

namespace ark::apps::experiments {

/** @name Figure 4: t-line transient dynamics */
/// @{

/** One OUT_V trace. */
struct TlnTrace
{
    std::vector<double> times;
    std::vector<double> volts;

    double peak() const;
    /** Maximum |v| inside [t0, t1]. */
    double peakWithin(double t0, double t1) const;
};

/** Figure 4b: 26-section linear line. */
TlnTrace fig4LinearTrace(const lang::Language &tln);

/** Figure 4a: branched line (18 main + 8 stub sections). */
TlnTrace fig4BranchedTrace(const lang::Language &tln);

/**
 * Figures 4c/4d: mismatched linear lines over `trials` fabricated
 * instances. gmMismatch selects Em-edge (Gm) mismatch; otherwise
 * Vm/Im (Cint) mismatch.
 */
std::vector<TlnTrace> fig4MismatchTraces(const lang::Language &gmcTln,
                                         bool gmMismatch, int trials,
                                         std::uint64_t seedBase = 1);

/** Across-trial spread: mean and max range of v(t) over a window. */
struct SpreadStats
{
    double meanRange;
    double maxRange;
};
SpreadStats spreadWithinWindow(const std::vector<TlnTrace> &traces,
                               double t0, double t1);

/// @}

/** @name Figure 11: CNN edge detection under nonidealities */
/// @{

/** One CNN run: frames over time plus convergence summary. */
struct CnnRun
{
    std::vector<double> frameTimes;
    std::vector<Image> frames;    ///< sat(x) rendered per frame.
    Image finalOutput;            ///< Binarized last frame.
    int outputErrors = 0;         ///< Sign mismatches vs. ground truth.
    bool converged = false;       ///< All cells saturated by the end.
    double convergeTime = -1.0;   ///< First frame time fully saturated.
};

/**
 * Runs the edge detector over `input` with the given nonideality
 * configuration (Figure 11 columns A-D).
 */
CnnRun runCnnEdgeDetect(const lang::Language &language,
                        const paradigms::cnn::CnnSpec &spec,
                        const Image &input,
                        const std::vector<double> &frameTimes);

/// @}

/** @name Table 1: OBC max-cut */
/// @{

/** One solved instance: the graph and its final oscillator phases. */
struct MaxcutOutcome
{
    paradigms::obc::MaxcutInstance instance;
    std::vector<double> phases;
};

/**
 * Simulates `trials` random 4-vertex max-cut instances (edge
 * probability 0.5, random initial phases) on the ideal or
 * offset-afflicted oscillator network. The front end (draw, build,
 * compile through the engine session) runs on the shared pool and the
 * instances integrate as one ensemble, both at the ensemble's default
 * thread count (hardware concurrency). A trial that fails to build or
 * compile throws its error; with several, the lowest trial's.
 */
std::vector<MaxcutOutcome> runMaxcutSims(const lang::Language &language,
                                         bool withOffset, int trials,
                                         std::uint64_t seedBase = 1);

/** Table-1 row: probabilities in percent. */
struct ObcRow
{
    double syncProb;
    double solvedProb;
};

/** Scores outcomes at phase tolerance d (radians). */
ObcRow scoreMaxcut(const std::vector<MaxcutOutcome> &outcomes, double d);

/// @}

/** @name §4.5: SPICE cross-validation */
/// @{

struct SpiceValidation
{
    int total = 0;
    int mapped = 0;       ///< DGs that produced a netlist.
    int under1pct = 0;    ///< Trials with relative RMSE < 1%.
    double meanRmse = 0;  ///< Mean relative RMSE.
    double maxRmse = 0;
    /** Distinct netlist structures in the sweep (each costs the
     *  SPICE batch one symbolic factorization). */
    int spiceGroups = 0;
    /** Companion factorizations served warm from the engine's
     *  artifact cache (0 on a cold first sweep or with caching off;
     *  a repeated sweep is served entirely from warm factors). */
    int spiceFactorHits = 0;
    /** Companion factorizations built (symbolic or numeric) by this
     *  sweep's SPICE side. */
    int spiceFactorMisses = 0;
};

/** Execution controls for the cross-validation sweep. */
struct SpiceValidationOptions
{
    /**
     * Worker threads for the per-trial front end (draw, build,
     * compile, map), the Ark ensemble and the SPICE batch
     * (0 = hardware concurrency). Statistics are independent of the
     * thread count.
     */
    unsigned numThreads = 0;

    /**
     * Serve compiled ODE systems and companion factorizations through
     * the engine's shared content-addressed ArtifactCache, so a
     * repeated sweep (same seedBase) skips validation/compilation on
     * the DG side and reuses warm factors on the SPICE side
     * (spiceFactorHits reports how many). Off rebuilds everything per
     * call; results and statistics are bit-identical either way.
     */
    bool cache = true;
};

/**
 * Generates `trials` random valid GmC-TLN DGs (random topology and
 * attributes, both mismatch kinds enabled), maps each to a SPICE
 * netlist, and compares transient dynamics against the Ark compiler +
 * ODE solver at OUT_V. Both sides run batched: the compiled systems
 * go through sim::simulateEnsemble, the netlists through the sparse
 * shared-structure spice::TransientBatch (engine::Session::runSweep),
 * and the paired series are scored per trial.
 */
SpiceValidation runSpiceValidation(
    const lang::Language &gmcTln, int trials, std::uint64_t seedBase = 1,
    const SpiceValidationOptions &options = SpiceValidationOptions{});

/// @}

} // namespace ark::apps::experiments

#endif // ARK_APPS_EXPERIMENTS_H
