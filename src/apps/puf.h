#ifndef ARK_APPS_PUF_H
#define ARK_APPS_PUF_H

/**
 * @file
 * Transmission-line PUF analysis (paper §2).
 *
 * The PUF is a t-line with switchable branch stubs: the challenge
 * bitvector selects which stubs connect, reshaping the reflection
 * pattern observed at OUT_V; per-chip GmC mismatch (Em edge weights,
 * optionally Vm/Im capacitances) makes the waveform device-unique.
 * The response encodes the chip's waveform against the nominal
 * (mismatch-free) waveform, sampled across the observation window.
 *
 * Standard PUF quality metrics are provided: uniqueness (inter-chip
 * Hamming distance, ideal 50%), reliability (intra-chip distance
 * under measurement noise, ideal 0%), and challenge sensitivity.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dg/graph.h"
#include "engine/session.h"
#include "lang/language.h"
#include "sim/sim.h"

namespace ark::apps {

/** PUF topology and measurement parameters. */
struct PufDesign
{
    int mainSections = 20;   ///< LC sections on the main line.
    int numBranches = 4;     ///< Challenge width (switchable stubs).
    int stubSections = 4;    ///< Sections per stub.
    double pulseWidth = 2e-8;
    double windowStart = 1e-8; ///< Observation window (paper §2.2).
    double windowEnd = 8e-8;
    int responseBits = 64;   ///< Samples encoded into the response.

    /**
     * Integration method for the waveform simulations. Rk4 (default)
     * runs every chip on one homogeneous time grid, which lets a
     * challenge battery lane-batch across chips (the per-chip mismatch
     * weights land in LaneTape's per-lane constant tables while the
     * instruction stream is shared) with results bit-identical to
     * per-chip simulate() calls. Dopri5 batteries lane-batch too,
     * through the step-voting adaptive driver (sim/batch.h) — all
     * chips advance on one voted step sequence, so waveforms are
     * tolerance-level equivalent to per-chip adaptive runs rather
     * than bit-identical.
     */
    sim::Method simMethod = sim::Method::Rk4;

    /**
     * Fixed step for Rk4 / initial step for Dopri5; 0 picks
     * windowEnd/4000, the grid density the §4.5 SPICE
     * cross-validation runs at (<1% RMSE on these lines).
     */
    double simDt = 0.0;

    /**
     * Serve battery RHS evaluations from JIT native kernels
     * (sim::SimOptions::jit). Bit-identical to the interpreted tiers
     * and falls back to them silently when no host toolchain exists,
     * so response bits never depend on this knob.
     */
    bool jit = false;
};

/**
 * A reconfigurable TLN PUF design bound to the gmc-tln language.
 * Thread-safe: concurrent response()/waveform() calls are supported
 * (the nominal-waveform cache is populated once per challenge under
 * a per-challenge once-flag).
 *
 * Compiled chip systems are served through the engine session's
 * content-addressed ArtifactCache: a (challenge, chipSeed) pair is
 * built, ILP-validated, and compiled at most once per cache lifetime,
 * so challenge batteries that revisit challenges (CRP-dataset
 * generation, evaluatePuf's re-measurement pass) skip compilation
 * entirely. Pass a Session with caching disabled to reproduce the
 * historical rebuild-per-call behavior (results are bit-identical
 * either way).
 */
class TlnPuf
{
  public:
    /** @param gmcTln The gmc-tln language (mismatch types needed).
     *  @param session Engine front door used for compilation and
     *         ensemble execution (defaults to the shared cache). */
    TlnPuf(const lang::Language &gmcTln, PufDesign design,
           engine::Session session = engine::Session{});

    const PufDesign &design() const { return design_; }

    /** The engine session this PUF compiles and simulates through. */
    const engine::Session &session() const { return session_; }

    /**
     * Builds the PUF dynamical graph for one chip and challenge.
     * @param challenge Bit b enables stub b (must fit numBranches).
     * @param chipSeed  Mismatch seed; 0 disables mismatch entirely
     *                  (the nominal reference device).
     */
    dg::Graph buildGraph(std::uint32_t challenge,
                         std::uint64_t chipSeed) const;

    /** OUT_V waveform across the observation window. */
    std::vector<double> waveform(std::uint32_t challenge,
                                 std::uint64_t chipSeed) const;

    /**
     * OUT_V waveforms of many chips under one challenge. Each chip's
     * dynamical graph is built and compiled up front, then the whole
     * battery integrates through sim::simulateEnsemble — chips
     * lane-batch into shared instruction streams (same circuit
     * structure, per-chip mismatch constants). With the default
     * fixed-step design, results match per-chip waveform() calls
     * exactly; a Dopri5 design lane-batches through the step-voting
     * driver and matches at tolerance level instead.
     * @param numThreads 0 picks the hardware concurrency.
     * @throws ark::support::SimError if any chip's simulation fails
     *         (the structured per-instance failure is surfaced).
     */
    std::vector<std::vector<double>> waveformBatch(
        std::uint32_t challenge,
        const std::vector<std::uint64_t> &chipSeeds,
        unsigned numThreads = 0) const;

    /**
     * Challenge responses of many chips under one challenge, batched
     * through the ensemble engine. `noiseSeeds` must be empty or hold
     * one seed per chip; noise is applied only when `noiseSigma` is
     * positive AND per-chip seeds are given (a shared implicit seed
     * would correlate the chips' noise).
     */
    std::vector<std::vector<std::uint8_t>> responseBatch(
        std::uint32_t challenge,
        const std::vector<std::uint64_t> &chipSeeds,
        double noiseSigma = 0.0,
        const std::vector<std::uint64_t> &noiseSeeds = {},
        unsigned numThreads = 0) const;

    /**
     * Multi-challenge CRP battery: responses[c][chip] is chip
     * `chipSeeds[chip]`'s response to `challenges[c]`. This is the
     * cached front door for CRP-dataset generation: each distinct
     * (challenge, chip) system is compiled once (content-addressed,
     * warm across calls) and simulated once per call even when the
     * challenge list repeats entries — repeated challenges replicate
     * the simulated waveform and differ only in measurement noise.
     * The whole battery (all distinct challenges x chips) integrates
     * as ONE ensemble dispatch, so lane batching and the worker pool
     * amortize across challenges, not just within one.
     *
     * `noiseSeeds` must be empty (no noise) or hold one seed per
     * (challenge, chip) pair, challenge-major
     * (noiseSeeds[c * chipSeeds.size() + chip]); noise is applied
     * only when noiseSigma is positive AND seeds are given. With the
     * default fixed-step design, responses are bit-identical to
     * calling responseBatch once per challenge; an adaptive Dopri5
     * design lane-batches across challenges on voted step grids, so
     * responses match per-challenge calls at tolerance level instead.
     * @throws ark::support::SimError if any chip simulation fails.
     */
    std::vector<std::vector<std::vector<std::uint8_t>>> responseMatrix(
        const std::vector<std::uint32_t> &challenges,
        const std::vector<std::uint64_t> &chipSeeds,
        double noiseSigma = 0.0,
        const std::vector<std::uint64_t> &noiseSeeds = {},
        unsigned numThreads = 0) const;

    /**
     * Challenge response: one bit per sample, set when the chip's
     * waveform exceeds the nominal device's waveform at that sample.
     * Additive Gaussian measurement noise models re-measurement.
     */
    std::vector<std::uint8_t> response(std::uint32_t challenge,
                                       std::uint64_t chipSeed,
                                       double noiseSigma = 0.0,
                                       std::uint64_t noiseSeed = 0) const;

  private:
    const lang::Language &lang_;
    PufDesign design_;
    engine::Session session_;
    /** Nominal waveform per challenge, filled at most once under the
     *  matching once-flag — safe against concurrent response() calls.
     *  nominalReady_ flips true after publication; responseMatrix
     *  probes it to decide whether to fold the nominal device into
     *  its ensemble dispatch (a stale false only costs a redundant
     *  instance, never correctness). */
    mutable std::vector<std::vector<double>> nominalCache_;
    std::unique_ptr<std::once_flag[]> nominalOnce_;
    std::unique_ptr<std::atomic<bool>[]> nominalReady_;

    const std::vector<double> &nominalWaveform(std::uint32_t challenge) const;
};

/** Fraction of differing bits (0..1). */
double hammingFraction(const std::vector<std::uint8_t> &a,
                       const std::vector<std::uint8_t> &b);

/** PUF corpus metrics over a set of chips. */
struct PufMetrics
{
    double uniqueness;  ///< Mean inter-chip response distance.
    double reliability; ///< Mean intra-chip distance under noise.
    double challengeSensitivity; ///< Mean distance across challenges.
};

/**
 * Evaluates a PUF design over `numChips` simulated chips and
 * `numChallenges` random challenges.
 */
PufMetrics evaluatePuf(const TlnPuf &puf, int numChips,
                       int numChallenges, double noiseSigma,
                       std::uint64_t seed);

} // namespace ark::apps

#endif // ARK_APPS_PUF_H
