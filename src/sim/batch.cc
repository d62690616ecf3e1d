#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "expr/cjit.h"
#include "expr/lanetape.h"
#include "expr/rewrite.h"
#include "sim/blockeval.h"
#include "sim/dopri5.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "support/ledger.h"
#include "support/logging.h"
#include "support/telemetry.h"
#include "support/watchdog.h"

namespace ark::sim {

using support::cat;
using support::SimError;

namespace {

/**
 * Step-voting and retirement tallies, accumulated locally by the
 * drivers (which already track steps/rejections for SimResult) and
 * flushed to the registry once per block — per-step instrumentation
 * would violate the telemetry overhead budget.
 */
struct VoteStats
{
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t retirements = 0;
    std::size_t spills = 0;

    ~VoteStats() { flush(); }

    void
    flush() const
    {
        if (!telemetry::metricsEnabled())
            return;
        static telemetry::Counter &acceptedVotes =
            telemetry::Registry::shared().counter("ark.sim.vote.accepted");
        static telemetry::Counter &rejectedVotes =
            telemetry::Registry::shared().counter("ark.sim.vote.rejected");
        static telemetry::Counter &laneRetirements =
            telemetry::Registry::shared().counter(
                "ark.sim.lane_retirements");
        static telemetry::Counter &scalarSpills =
            telemetry::Registry::shared().counter("ark.sim.spills");
        acceptedVotes.add(accepted);
        rejectedVotes.add(rejected);
        laneRetirements.add(retirements);
        scalarSpills.add(spills);
    }
};

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/** Lazily-grown pool cap; parked workers are cheap but not free. */
constexpr unsigned kMaxPoolThreads = 64;

SimResult
cancelledResult(double t)
{
    SimResult result;
    result.failure = detail::cancelledFailure(t, 0);
    return result;
}

SimResult
deadlineResult(double t)
{
    SimResult result;
    result.failure = detail::deadlineFailure(t, 0);
    return result;
}

bool
deadlinePassed(const Deadline &deadline)
{
    return deadline &&
           std::chrono::steady_clock::now() >= *deadline;
}

using detail::BlockEvaluator;

/** Message for an in-flight exception (structured fault capture). */
std::string
currentExceptionMessage()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

/**
 * Lane-batched fixed-step RK4 over one block. Mirrors the scalar RK4
 * driver in sim.cc operation-for-operation — same stage expressions,
 * same time accumulation, same record gating — so every lane's
 * trajectory is bit-identical to a serial simulate() of that instance.
 * A lane whose state goes nonfinite is masked out with a structured
 * failure (recording stops, its columns keep computing ignored
 * garbage; lanes never mix, so the rest of the block is unaffected).
 * Budget exhaustion is likewise structural: all lanes share one fixed
 * grid, so when the step budget runs out every still-active lane
 * retires with a BudgetExhausted failure — exactly what each would
 * have reported in a serial run.
 */
std::vector<SimResult>
runLaneRk4(BlockEvaluator &rhs,
           const std::vector<const std::vector<double> *> &initials,
           const std::vector<const compiler::OdeSystem *> &systems,
           double t0, double t1, const SimOptions &options,
           const std::stop_token &stop, const Deadline &deadline,
           const std::function<void(std::size_t)> &laneDone)
{
    const expr::LaneTape &tape = rhs.tape();
    const std::size_t lanes = tape.lanes();
    const std::size_t width = tape.width();
    const std::size_t n = tape.numOutputs();
    const std::size_t m = n * width;
    std::vector<SimResult> results(lanes);
    VoteStats stats;

    auto failDiverged = [&](std::size_t lane, int var, double t,
                            std::size_t steps) {
        results[lane].steps = steps;
        results[lane].failure =
            detail::divergedFailure(*systems[lane], var, t, steps);
        ++stats.retirements;
        laneDone(1);
    };

    // SoA blocks, lane-minor; padding lanes replicate lane 0 so their
    // (discarded) arithmetic stays finite.
    std::vector<double> state(m), k1(m), k2(m), k3(m), k4(m), tmp(m);
    for (std::size_t l = 0; l < width; ++l) {
        const std::vector<double> &src = *initials[l < lanes ? l : 0];
        for (std::size_t i = 0; i < n; ++i)
            state[i * width + l] = src[i];
    }

    std::vector<char> alive(lanes, 1);
    std::size_t aliveCount = lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!std::isfinite(state[i * width + l])) {
                failDiverged(l, static_cast<int>(i), t0, 0);
                alive[l] = 0;
                --aliveCount;
                break;
            }
        }
    }
    if (aliveCount == 0)
        return results;

    const double dt = options.dt > 0 ? options.dt : (t1 - t0) / 1000.0;
    std::size_t estimate =
        options.recordDt > 0
            ? static_cast<std::size_t>((t1 - t0) / options.recordDt) + 4
            : static_cast<std::size_t>((t1 - t0) / dt) + 4;
    estimate = std::min<std::size_t>(estimate, std::size_t{1} << 20);
    for (std::size_t l = 0; l < lanes; ++l)
        if (alive[l])
            results[l].trajectory.reserve(estimate, n);

    const double recordDt = options.recordDt;
    double lastRecord = -1.0;
    std::vector<double> sample(n), slope(n);
    // All lanes share the time grid, so one record gate serves the
    // whole block; dead lanes are simply skipped.
    auto record = [&](double t, bool force) {
        if (!(force || recordDt <= 0.0 ||
              t - lastRecord >= recordDt * (1.0 - 1e-12)))
            return;
        for (std::size_t l = 0; l < lanes; ++l) {
            if (!alive[l])
                continue;
            for (std::size_t i = 0; i < n; ++i) {
                sample[i] = state[i * width + l];
                slope[i] = k1[i * width + l];
            }
            results[l].trajectory.addSample(t, sample, &slope);
        }
        lastRecord = t;
    };

    double t = t0;
    std::size_t steps = 0;
    // As in the scalar driver, k1 is both the recorded slope and the
    // next step's first stage — four block evaluations per step.
    rhs.eval(state.data(), t, k1.data());
    record(t, true);

    while (t < t1 - 1e-15 * std::max(1.0, std::fabs(t1))) {
        double h = std::min(dt, t1 - t);
        if (steps >= options.maxSteps) {
            for (std::size_t l = 0; l < lanes; ++l) {
                if (!alive[l])
                    continue;
                results[l].steps = steps;
                results[l].failure = detail::budgetFailure(t, steps);
            }
            laneDone(aliveCount);
            return results;
        }
        if (stop.stop_requested() || deadlinePassed(deadline)) {
            const bool cancel = stop.stop_requested();
            for (std::size_t l = 0; l < lanes; ++l) {
                if (!alive[l])
                    continue;
                results[l].steps = steps;
                results[l].failure =
                    cancel ? detail::cancelledFailure(t, steps)
                           : detail::deadlineFailure(t, steps);
            }
            laneDone(aliveCount);
            return results;
        }
        for (std::size_t j = 0; j < m; ++j)
            tmp[j] = state[j] + 0.5 * h * k1[j];
        rhs.eval(tmp.data(), t + 0.5 * h, k2.data());
        for (std::size_t j = 0; j < m; ++j)
            tmp[j] = state[j] + 0.5 * h * k2[j];
        rhs.eval(tmp.data(), t + 0.5 * h, k3.data());
        for (std::size_t j = 0; j < m; ++j)
            tmp[j] = state[j] + h * k3[j];
        rhs.eval(tmp.data(), t + h, k4.data());
        for (std::size_t j = 0; j < m; ++j) {
            state[j] += h / 6.0 *
                        (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        }
        t += h;
        ++steps;
        stats.accepted = steps;
        for (std::size_t l = 0; l < lanes; ++l) {
            if (!alive[l])
                continue;
            for (std::size_t i = 0; i < n; ++i) {
                if (!std::isfinite(state[i * width + l])) {
                    failDiverged(l, static_cast<int>(i), t, steps);
                    alive[l] = 0;
                    --aliveCount;
                    break;
                }
            }
        }
        if (aliveCount == 0)
            return results;
        rhs.eval(state.data(), t, k1.data());
        record(t, false);
    }
    record(t, true);
    for (std::size_t l = 0; l < lanes; ++l)
        if (alive[l])
            results[l].steps = steps;
    laneDone(aliveCount);
    return results;
}

/**
 * Lane-synchronized adaptive Dopri5 over one block ("step voting").
 *
 * Every lane advances on ONE shared step size: per step the block
 * evaluates the six Dormand-Prince stages plus the FSAL stage for all
 * lanes at once, computes a per-lane error norm, and
 *
 *  - accepts the step only when every active lane's error test
 *    passes, advancing all of them on the shared grid; the next step
 *    size is the minimum of the per-lane PI controller outputs (the
 *    most cautious lane wins the vote);
 *  - otherwise rejects the step for the whole block, charging a
 *    rejection only to the lanes whose error actually exceeded 1
 *    (per-lane rejection masking) and shrinking by the controller
 *    factor of the worst lane.
 *
 * A lane whose error estimate or accepted state goes nonfinite is
 * retired on the spot with a structured divergence failure and stops
 * voting; the rest of the block integrates on. When enough lanes
 * retire that a narrower SoA width would hold the survivors, the
 * block compacts (state/slope columns are re-merged into a fresh
 * LaneTape of the smaller width); a single surviving lane spills to a
 * scalar continuation that reuses the exact sim.cc recurrence, so a
 * degenerate block costs no lane overhead.
 *
 * Numerics: the shared grid makes trajectories tolerance-level
 * equivalent to scalar Dopri5 (every accepted step satisfied every
 * lane's error test), not bitwise; the voting sequence depends only
 * on the block membership, so results are bit-identical across
 * thread counts. Step collapse on the shared step still throws for
 * the block as a unit (a tolerance/step-floor misconfiguration, not a
 * per-instance property); budget exhaustion is charged per lane — a
 * lane retires with a structured BudgetExhausted failure once the
 * shared accepted steps plus ITS OWN voted-down rejections reach
 * maxSteps, and the healthy lanes integrate on.
 */
class LaneDopri5
{
  public:
    LaneDopri5(const std::vector<const expr::FusedTape *> &tapes,
               const std::vector<const std::vector<double> *> &initials,
               const std::vector<const compiler::OdeSystem *> &systems,
               double t0, double t1, const SimOptions &options,
               const std::stop_token &stop, const Deadline &deadline,
               const std::function<void(std::size_t)> &laneDone,
               bool jitOn)
        : tapes_(tapes), systems_(systems), options_(options),
          stop_(stop), deadline_(deadline), laneDone_(laneDone),
          jitOn_(jitOn),
          n_(tapes.front()->numOutputs()), t1_(t1),
          end_(t1 - 1e-15 * std::max(1.0, std::fabs(t1))),
          hMax_(options.maxDt > 0 ? options.maxDt : (t1 - t0) / 10.0),
          t_(t0), h_(options.dt > 0 ? options.dt : (t1 - t0) / 1000.0),
          recordDt_(options.recordDt), results_(tapes.size())
    {
        for (std::size_t member = 0; member < initials.size(); ++member) {
            const std::vector<double> &init = *initials[member];
            int bad = firstNonfinite(init.data(), init.size());
            if (bad >= 0) {
                results_[member].failure = detail::divergedFailure(
                    *systems_[member], bad, t0, 0);
                laneDone_(1);
                continue;
            }
            Lane lane;
            lane.member = member;
            lane.state = init;
            active_.push_back(std::move(lane));
        }
        std::size_t estimate =
            recordDt_ > 0
                ? static_cast<std::size_t>((t1 - t0) / recordDt_) + 4
                : 256;
        estimate = std::min<std::size_t>(estimate, std::size_t{1} << 20);
        for (const Lane &lane : active_)
            results_[lane.member].trajectory.reserve(estimate, n_);
    }

    ~LaneDopri5()
    {
        stats_.accepted = steps_;
        stats_.rejected = rejectedShared_;
        // stats_'s own destructor flushes to the registry.
    }

    /** True when any block (or the scalar spill) ran a tier-5
     *  kernel — drives the run ledger's tier attribution. */
    bool usedJit() const { return usedJit_; }

    std::vector<SimResult>
    run()
    {
        // The first block evaluation also produces the k1 slope for
        // the initial record; after a compaction the slopes carry
        // over and nothing is re-recorded.
        bool initial = true;
        while (!active_.empty() && t_ < end_) {
            if (active_.size() == 1) {
                spill(initial);
                return results_;
            }
            if (runBlock(initial) == Status::Done)
                return results_;
            initial = false;
        }
        // Degenerate ranges (t0 ~ t1): record the initial sample only.
        if (!active_.empty()) {
            finishActive(initial);
        }
        return results_;
    }

  private:
    enum class Status { Done, Compact };

    /** Per-lane state that survives block compaction. */
    struct Lane
    {
        std::size_t member = 0;    ///< Index into the job's results.
        std::vector<double> state; ///< Current state (n_).
        std::vector<double> k1;    ///< FSAL slope at (t_, state).
        double prevErr = 1.0;      ///< Last accepted error norm.
        std::size_t rejected = 0;  ///< Steps this lane voted down.
    };

    static int
    firstNonfinite(const double *x, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            if (!std::isfinite(x[i]))
                return static_cast<int>(i);
        return -1;
    }

    bool
    recordGateOpen(double t, bool force) const
    {
        return force || recordDt_ <= 0.0 ||
               t - lastRecord_ >= recordDt_ * (1.0 - 1e-12);
    }

    /** Integrates the current active set as one lane block. */
    Status
    runBlock(bool initial)
    {
        std::vector<const expr::FusedTape *> blockTapes;
        blockTapes.reserve(active_.size());
        for (const Lane &lane : active_)
            blockTapes.push_back(tapes_[lane.member]);
        std::optional<expr::LaneTape> merged =
            expr::LaneTape::merge(blockTapes);
        // The batch partition already verified compatibility.
        support::panicIf(!merged.has_value(),
                         "LaneDopri5: block merge failed");
        BlockEvaluator rhs(*std::move(merged), jitOn_);
        const expr::LaneTape &tape = rhs.tape();
        if (rhs.jitted())
            usedJit_ = true;
        const std::size_t L = active_.size();
        const std::size_t W = tape.width();
        const std::size_t m = n_ * W;

        std::vector<double> state(m), next(m), tmp(m);
        std::vector<double> k1(m), k2(m), k3(m), k4(m), k5(m), k6(m),
            k7(m);
        std::vector<double> err(L, 0.0);
        std::vector<char> alive(L, 1);
        std::size_t aliveCount = L;
        // SoA columns, lane-minor; padding lanes replicate slot 0 so
        // their (discarded) arithmetic stays finite.
        for (std::size_t s = 0; s < W; ++s) {
            const Lane &src = active_[s < L ? s : 0];
            for (std::size_t i = 0; i < n_; ++i)
                state[i * W + s] = src.state[i];
            if (!initial) {
                for (std::size_t i = 0; i < n_; ++i)
                    k1[i * W + s] = src.k1[i];
            }
        }

        std::vector<double> sample(n_), slope(n_);
        auto record = [&](double t, bool force) {
            if (!recordGateOpen(t, force))
                return;
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s])
                    continue;
                for (std::size_t i = 0; i < n_; ++i) {
                    sample[i] = state[i * W + s];
                    slope[i] = k1[i * W + s];
                }
                results_[active_[s].member].trajectory.addSample(
                    t, sample, &slope);
            }
            lastRecord_ = t;
        };

        auto retireDiverged = [&](std::size_t s, int var) {
            SimResult &r = results_[active_[s].member];
            r.steps = steps_;
            r.rejectedSteps = active_[s].rejected;
            r.failure = detail::divergedFailure(*systems_[active_[s].member],
                                                var, t_, steps_);
            alive[s] = 0;
            --aliveCount;
            ++stats_.retirements;
            laneDone_(1);
        };

        if (initial) {
            rhs.eval(state.data(), t_, k1.data());
            record(t_, true);
        }

        using detail::Dopri5;
        while (t_ < end_) {
            h_ = std::min(h_, t1_ - t_);
            h_ = std::min(h_, hMax_);
            if (h_ < 1e-18 * std::max(1.0, std::fabs(t_)))
                throw SimError(cat("step size collapsed at t=", t_));
            // Per-lane budget: shared accepted steps plus the lane's
            // own voted-down rejections — the same accounting the
            // scalar driver applies to steps + rejectedSteps. Only
            // the exhausted lane retires; its block-mates vote on.
            bool budgetRetired = false;
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s] ||
                    steps_ + active_[s].rejected < options_.maxSteps)
                    continue;
                SimResult &r = results_[active_[s].member];
                r.steps = steps_;
                r.rejectedSteps = active_[s].rejected;
                r.failure = detail::budgetFailure(t_, steps_);
                alive[s] = 0;
                --aliveCount;
                ++stats_.retirements;
                laneDone_(1);
                budgetRetired = true;
            }
            if (aliveCount == 0)
                return Status::Done;
            if (budgetRetired &&
                (aliveCount == 1 || aliveCount <= W / 2)) {
                compactInto(state, k1, alive, W);
                return Status::Compact;
            }
            if (stop_.stop_requested() || deadlinePassed(deadline_)) {
                const bool cancel = stop_.stop_requested();
                for (std::size_t s = 0; s < L; ++s) {
                    if (!alive[s])
                        continue;
                    SimResult &r = results_[active_[s].member];
                    r.steps = steps_;
                    r.rejectedSteps = active_[s].rejected;
                    r.failure =
                        cancel ? detail::cancelledFailure(t_, steps_)
                               : detail::deadlineFailure(t_, steps_);
                }
                laneDone_(aliveCount);
                return Status::Done;
            }

            const double h = h_;
            for (std::size_t j = 0; j < m; ++j)
                tmp[j] = state[j] + h * Dopri5::a21 * k1[j];
            rhs.eval(tmp.data(), t_ + Dopri5::c2 * h, k2.data());
            for (std::size_t j = 0; j < m; ++j) {
                tmp[j] = state[j] +
                         h * (Dopri5::a31 * k1[j] + Dopri5::a32 * k2[j]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c3 * h, k3.data());
            for (std::size_t j = 0; j < m; ++j) {
                tmp[j] = state[j] +
                         h * (Dopri5::a41 * k1[j] + Dopri5::a42 * k2[j] +
                              Dopri5::a43 * k3[j]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c4 * h, k4.data());
            for (std::size_t j = 0; j < m; ++j) {
                tmp[j] = state[j] +
                         h * (Dopri5::a51 * k1[j] + Dopri5::a52 * k2[j] +
                              Dopri5::a53 * k3[j] + Dopri5::a54 * k4[j]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c5 * h, k5.data());
            for (std::size_t j = 0; j < m; ++j) {
                tmp[j] = state[j] +
                         h * (Dopri5::a61 * k1[j] + Dopri5::a62 * k2[j] +
                              Dopri5::a63 * k3[j] + Dopri5::a64 * k4[j] +
                              Dopri5::a65 * k5[j]);
            }
            rhs.eval(tmp.data(), t_ + h, k6.data());
            for (std::size_t j = 0; j < m; ++j) {
                next[j] = state[j] +
                          h * (Dopri5::b1 * k1[j] + Dopri5::b3 * k3[j] +
                               Dopri5::b4 * k4[j] + Dopri5::b5 * k5[j] +
                               Dopri5::b6 * k6[j]);
            }
            rhs.eval(next.data(), t_ + h, k7.data());

            // Per-lane scaled error norms (5th vs embedded 4th).
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s])
                    continue;
                double norm = 0.0;
                for (std::size_t i = 0; i < n_; ++i) {
                    const std::size_t j = i * W + s;
                    double y4 =
                        state[j] +
                        h * (Dopri5::e1 * k1[j] + Dopri5::e3 * k3[j] +
                             Dopri5::e4 * k4[j] + Dopri5::e5 * k5[j] +
                             Dopri5::e6 * k6[j] + Dopri5::e7 * k7[j]);
                    double scale = options_.absTol +
                                   options_.relTol *
                                       std::max(std::fabs(state[j]),
                                                std::fabs(next[j]));
                    double e = (next[j] - y4) / scale;
                    norm += e * e;
                }
                err[s] = std::sqrt(norm / static_cast<double>(n_));
            }

            // A nonfinite error estimate retires the lane right here,
            // exactly like the scalar driver aborts: error control
            // can never accept it again. The survivors keep voting.
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s] || std::isfinite(err[s]))
                    continue;
                int bad = firstNonfinite(next.data() + s, n_, W);
                if (bad < 0)
                    bad = firstNonfinite(k7.data() + s, n_, W);
                retireDiverged(s, bad);
            }
            if (aliveCount == 0)
                return Status::Done;

            double worst = 0.0;
            for (std::size_t s = 0; s < L; ++s)
                if (alive[s])
                    worst = std::max(worst, err[s]);

            if (worst <= 1.0) {
                t_ += h;
                ++steps_;
                state.swap(next);
                k1.swap(k7); // FSAL: last stage is next first stage
                for (std::size_t s = 0; s < L; ++s) {
                    if (!alive[s])
                        continue;
                    int bad = firstNonfinite(state.data() + s, n_, W);
                    if (bad >= 0)
                        retireDiverged(s, bad);
                }
                record(t_, false);
                if (aliveCount == 0)
                    return Status::Done;
                // Step voting: the most cautious lane sets the pace.
                double factor = Dopri5::acceptFactor(err[0], 1.0);
                bool haveFactor = false;
                for (std::size_t s = 0; s < L; ++s) {
                    if (!alive[s])
                        continue;
                    double f = Dopri5::acceptFactor(err[s],
                                                    active_[s].prevErr);
                    factor = haveFactor ? std::min(factor, f) : f;
                    haveFactor = true;
                    active_[s].prevErr = err[s];
                }
                h_ *= factor;
            } else {
                ++rejectedShared_;
                for (std::size_t s = 0; s < L; ++s)
                    if (alive[s] && err[s] > 1.0)
                        ++active_[s].rejected;
                h_ *= Dopri5::rejectFactor(worst);
            }

            // Too few survivors to pay for this width: extract the
            // live columns and let the caller rebuild (or spill) —
            // but only while integration work remains. Compacting on
            // the very step that reached t1 would skip the forced
            // final record below and end the surviving trajectories
            // on the last gated sample instead of t1.
            if (aliveCount < L && t_ < end_ &&
                (aliveCount == 1 || aliveCount <= W / 2)) {
                compactInto(state, k1, alive, W);
                return Status::Compact;
            }
        }

        record(t_, true);
        for (std::size_t s = 0; s < L; ++s) {
            if (!alive[s])
                continue;
            SimResult &r = results_[active_[s].member];
            r.steps = steps_;
            r.rejectedSteps = active_[s].rejected;
        }
        laneDone_(aliveCount);
        return Status::Done;
    }

    /** First nonfinite of a lane's strided column, or -1. */
    static int
    firstNonfinite(const double *column, std::size_t n, std::size_t stride)
    {
        for (std::size_t i = 0; i < n; ++i)
            if (!std::isfinite(column[i * stride]))
                return static_cast<int>(i);
        return -1;
    }

    /** Saves surviving columns into active_ and drops retired lanes. */
    void
    compactInto(const std::vector<double> &state,
                const std::vector<double> &k1,
                const std::vector<char> &alive, std::size_t W)
    {
        std::vector<Lane> survivors;
        survivors.reserve(active_.size());
        for (std::size_t s = 0; s < active_.size(); ++s) {
            if (!alive[s])
                continue;
            Lane lane = std::move(active_[s]);
            lane.state.resize(n_);
            lane.k1.resize(n_);
            for (std::size_t i = 0; i < n_; ++i) {
                lane.state[i] = state[i * W + s];
                lane.k1[i] = k1[i * W + s];
            }
            survivors.push_back(std::move(lane));
        }
        active_ = std::move(survivors);
    }

    /**
     * Scalar continuation of the last surviving lane: the sim.cc
     * Dopri5 recurrence (same tableau, same controller, same
     * divergence handling) resumed from the block's shared (t, h)
     * with the lane's own FSAL slope and PI history.
     */
    void
    spill(bool initial)
    {
        using detail::Dopri5;
        ++stats_.spills;
        telemetry::ScopedSpan span("ark.sim.scalar_spill");
        Lane lane = std::move(active_.front());
        active_.clear();
        SimResult &r = results_[lane.member];
        const std::size_t n = n_;

        std::vector<double> state = std::move(lane.state);
        std::vector<double> k1 = std::move(lane.k1);
        k1.resize(n);
        std::vector<double> k2(n), k3(n), k4(n), k5(n), k6(n), k7(n);
        std::vector<double> tmp(n), next(n);
        double prevErr = lane.prevErr;

        // The survivor's own program at width 1, through the same
        // evaluator (interpreter or JIT kernel) as every block.
        BlockEvaluator rhs(
            expr::LaneTape::broadcast(*tapes_[lane.member], 1), jitOn_);
        if (rhs.jitted())
            usedJit_ = true;

        auto record = [&](double t, bool force) {
            if (!recordGateOpen(t, force))
                return;
            r.trajectory.addSample(t, state, &k1);
            lastRecord_ = t;
        };

        if (initial) {
            rhs.eval(state.data(), t_, k1.data());
            record(t_, true);
        }

        while (t_ < end_) {
            h_ = std::min(h_, t1_ - t_);
            h_ = std::min(h_, hMax_);
            if (h_ < 1e-18 * std::max(1.0, std::fabs(t_)))
                throw SimError(cat("step size collapsed at t=", t_));
            if (steps_ + lane.rejected >= options_.maxSteps) {
                r.steps = steps_;
                r.rejectedSteps = lane.rejected;
                r.failure = detail::budgetFailure(t_, steps_);
                laneDone_(1);
                return;
            }
            if (stop_.stop_requested() || deadlinePassed(deadline_)) {
                r.steps = steps_;
                r.rejectedSteps = lane.rejected;
                r.failure = stop_.stop_requested()
                                ? detail::cancelledFailure(t_, steps_)
                                : detail::deadlineFailure(t_, steps_);
                laneDone_(1);
                return;
            }

            const double h = h_;
            for (std::size_t i = 0; i < n; ++i)
                tmp[i] = state[i] + h * Dopri5::a21 * k1[i];
            rhs.eval(tmp.data(), t_ + Dopri5::c2 * h, k2.data());
            for (std::size_t i = 0; i < n; ++i) {
                tmp[i] = state[i] +
                         h * (Dopri5::a31 * k1[i] + Dopri5::a32 * k2[i]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c3 * h, k3.data());
            for (std::size_t i = 0; i < n; ++i) {
                tmp[i] = state[i] +
                         h * (Dopri5::a41 * k1[i] + Dopri5::a42 * k2[i] +
                              Dopri5::a43 * k3[i]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c4 * h, k4.data());
            for (std::size_t i = 0; i < n; ++i) {
                tmp[i] = state[i] +
                         h * (Dopri5::a51 * k1[i] + Dopri5::a52 * k2[i] +
                              Dopri5::a53 * k3[i] + Dopri5::a54 * k4[i]);
            }
            rhs.eval(tmp.data(), t_ + Dopri5::c5 * h, k5.data());
            for (std::size_t i = 0; i < n; ++i) {
                tmp[i] = state[i] +
                         h * (Dopri5::a61 * k1[i] + Dopri5::a62 * k2[i] +
                              Dopri5::a63 * k3[i] + Dopri5::a64 * k4[i] +
                              Dopri5::a65 * k5[i]);
            }
            rhs.eval(tmp.data(), t_ + h, k6.data());
            for (std::size_t i = 0; i < n; ++i) {
                next[i] = state[i] +
                          h * (Dopri5::b1 * k1[i] + Dopri5::b3 * k3[i] +
                               Dopri5::b4 * k4[i] + Dopri5::b5 * k5[i] +
                               Dopri5::b6 * k6[i]);
            }
            rhs.eval(next.data(), t_ + h, k7.data());

            double errNorm = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                double y4 = state[i] +
                            h * (Dopri5::e1 * k1[i] + Dopri5::e3 * k3[i] +
                                 Dopri5::e4 * k4[i] + Dopri5::e5 * k5[i] +
                                 Dopri5::e6 * k6[i] + Dopri5::e7 * k7[i]);
                double scale = options_.absTol +
                               options_.relTol *
                                   std::max(std::fabs(state[i]),
                                            std::fabs(next[i]));
                double e = (next[i] - y4) / scale;
                errNorm += e * e;
            }
            errNorm = std::sqrt(errNorm / static_cast<double>(n));

            if (!std::isfinite(errNorm)) {
                int bad = firstNonfinite(next.data(), n);
                if (bad < 0)
                    bad = firstNonfinite(k7.data(), n);
                r.steps = steps_;
                r.rejectedSteps = lane.rejected;
                r.failure = detail::divergedFailure(*systems_[lane.member],
                                                    bad, t_, steps_);
                laneDone_(1);
                return;
            }

            if (errNorm <= 1.0) {
                t_ += h;
                ++steps_;
                state.swap(next);
                std::swap(k1, k7);
                if (int bad = firstNonfinite(state.data(), n); bad >= 0) {
                    r.steps = steps_;
                    r.rejectedSteps = lane.rejected;
                    r.failure = detail::divergedFailure(
                        *systems_[lane.member], bad, t_, steps_);
                    laneDone_(1);
                    return;
                }
                record(t_, false);
                h_ *= Dopri5::acceptFactor(errNorm, prevErr);
                prevErr = errNorm;
            } else {
                ++rejectedShared_;
                ++lane.rejected;
                h_ *= Dopri5::rejectFactor(errNorm);
            }
        }
        record(t_, true);
        r.steps = steps_;
        r.rejectedSteps = lane.rejected;
        laneDone_(1);
    }

    /** Degenerate (t0 ~ t1) finish: record the initial state only. */
    void
    finishActive(bool initial)
    {
        for (Lane &lane : active_) {
            SimResult &r = results_[lane.member];
            if (initial) {
                lane.k1.resize(n_);
                BlockEvaluator rhs(
                    expr::LaneTape::broadcast(*tapes_[lane.member], 1),
                    /*jitOn=*/false);
                rhs.eval(lane.state.data(), t_, lane.k1.data());
                r.trajectory.addSample(t_, lane.state, &lane.k1);
            }
            r.steps = steps_;
            r.rejectedSteps = lane.rejected;
        }
        laneDone_(active_.size());
        active_.clear();
    }

    const std::vector<const expr::FusedTape *> &tapes_;
    const std::vector<const compiler::OdeSystem *> &systems_;
    const SimOptions &options_;
    const std::stop_token &stop_;
    const Deadline &deadline_;
    const std::function<void(std::size_t)> &laneDone_;
    const bool jitOn_;     ///< Try tier-5 kernels per block.
    bool usedJit_ = false; ///< Any block/spill actually ran one.

    const std::size_t n_;  ///< State variables per instance.
    const double t1_;
    const double end_;     ///< t1 minus the loop-exit epsilon.
    const double hMax_;

    double t_;             ///< Shared integration time.
    double h_;             ///< Shared (voted) step size.
    double lastRecord_ = -1.0;
    double recordDt_;
    std::size_t steps_ = 0;          ///< Shared accepted steps.
    std::size_t rejectedShared_ = 0; ///< Shared rejected block steps.
    VoteStats stats_;                ///< Registry tallies, flushed once.
    std::vector<Lane> active_;
    std::vector<SimResult> results_;
};

/** One pool job: a lane block (2+ members) or a scalar instance. */
struct Job
{
    std::vector<std::size_t> members;
    bool lane = false;
};

} // namespace

/**
 * Persistent worker pool. Workers are std::jthread, parked on a
 * condition variable between batches and woken per run() generation;
 * job indices are claimed with an atomic counter (work stealing), and
 * the calling thread drains alongside the workers. run() returns only
 * after every claimed job has finished AND every worker has left its
 * drain loop, so the job closure can safely live on the caller's
 * stack.
 */
class BatchRunner::Pool
{
  public:
    ~Pool()
    {
        // jthread destructors request stop; wake the parked workers so
        // they observe it.
        for (std::jthread &worker : workers_)
            worker.request_stop();
        cv_.notify_all();
    }

    unsigned
    size() const
    {
        std::lock_guard lock(m_);
        return static_cast<unsigned>(workers_.size());
    }

    /** Grows the pool to `target` workers (capped). */
    void
    ensure(unsigned target)
    {
        target = std::min(target, kMaxPoolThreads);
        std::lock_guard lock(m_);
        while (workers_.size() < target) {
            unsigned index = static_cast<unsigned>(workers_.size());
            workers_.emplace_back([this, index](std::stop_token st) {
                workerLoop(st, index);
            });
        }
    }

    /**
     * Runs job(0..count) using the calling thread plus up to
     * `activeWorkers` pool workers. The job must capture its own
     * exceptions (a throw would terminate a worker).
     */
    void
    run(std::size_t count, unsigned activeWorkers,
        const std::function<void(std::size_t)> &job)
    {
        if (count == 0)
            return;
        // One batch at a time: a second caller resetting next_/count_
        // mid-generation would re-issue indices and let run() return
        // while workers still hold the first batch's job closure.
        std::lock_guard runLock(runMutex_);
        {
            std::lock_guard lock(m_);
            ++generation_;
            count_ = count;
            job_ = &job;
            active_ = activeWorkers;
            finished_ = 0;
            next_.store(0, std::memory_order_relaxed);
        }
        cv_.notify_all();
        drain(&job, count, /*stolen=*/false);
        std::unique_lock lock(m_);
        doneCv_.wait(lock, [&] {
            return finished_ == count_ && draining_ == 0;
        });
        job_ = nullptr;
    }

  private:
    void
    drain(const std::function<void(std::size_t)> *job, std::size_t count,
          bool stolen)
    {
        static telemetry::Counter &tasks =
            telemetry::Registry::shared().counter("ark.sim.pool.tasks");
        static telemetry::Counter &steals =
            telemetry::Registry::shared().counter("ark.sim.pool.steals");
        for (std::size_t i = next_.fetch_add(1); i < count;
             i = next_.fetch_add(1)) {
            tasks.add();
            if (stolen)
                steals.add();
            (*job)(i);
            std::lock_guard lock(m_);
            if (++finished_ == count_)
                doneCv_.notify_all();
        }
    }

    void
    workerLoop(std::stop_token st, unsigned index)
    {
        static telemetry::Counter &parks =
            telemetry::Registry::shared().counter("ark.sim.pool.parks");
        static telemetry::Counter &wakes =
            telemetry::Registry::shared().counter("ark.sim.pool.wakes");
        static telemetry::Counter &busyNs =
            telemetry::Registry::shared().counter("ark.sim.pool.busy_ns");
        std::uint64_t seen = 0;
        while (true) {
            const std::function<void(std::size_t)> *job;
            std::size_t count;
            {
                std::unique_lock lock(m_);
                parks.add();
                bool live = cv_.wait(lock, st, [&] {
                    return job_ != nullptr && generation_ != seen &&
                           index < active_;
                });
                if (!live)
                    return; // stop requested (pool teardown)
                wakes.add();
                seen = generation_;
                job = job_;
                count = count_;
                ++draining_;
            }
            // Busy time covers the whole drain (jobs claimed by this
            // worker); the clock is only read when collection is on.
            const bool timed = telemetry::metricsEnabled();
            const std::uint64_t begin =
                timed ? telemetry::detail::nowNs() : 0;
            drain(job, count, /*stolen=*/true);
            if (timed)
                busyNs.add(telemetry::detail::nowNs() - begin);
            std::lock_guard lock(m_);
            if (--draining_ == 0 && finished_ == count_)
                doneCv_.notify_all();
        }
    }

    std::mutex runMutex_; ///< Serializes whole run() calls.
    mutable std::mutex m_;
    std::condition_variable_any cv_; ///< Workers park here.
    std::condition_variable doneCv_; ///< run() completion.
    std::uint64_t generation_ = 0;
    std::size_t count_ = 0;
    unsigned active_ = 0;
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::atomic<std::size_t> next_{0};
    std::size_t finished_ = 0;  ///< Jobs completed this generation.
    unsigned draining_ = 0;     ///< Workers inside their drain loop.
    std::vector<std::jthread> workers_;
};

BatchRunner::BatchRunner() : pool_(std::make_unique<Pool>()) {}

BatchRunner::~BatchRunner() = default;

unsigned
BatchRunner::poolThreads() const
{
    return pool_->size();
}

void
BatchRunner::parallelFor(std::size_t count, unsigned numThreads,
                         const std::function<void(std::size_t)> &job)
{
    if (count == 0)
        return;
    if (numThreads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        numThreads = hw ? hw : 1;
    }
    unsigned effective = static_cast<unsigned>(
        std::min<std::size_t>(numThreads, count));
    if (effective <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            job(i);
        return;
    }
    pool_->ensure(effective - 1);
    pool_->run(count, effective - 1, job);
}

BatchRunner &
BatchRunner::shared()
{
    static BatchRunner runner;
    return runner;
}

std::vector<SimResult>
BatchRunner::run(const compiler::OdeSystem &system,
                 const std::vector<std::vector<double>> &initialStates,
                 double t0, double t1, const EnsembleOptions &options)
{
    return runImpl(&system, &initialStates, nullptr, t0, t1, options);
}

std::vector<SimResult>
BatchRunner::run(const std::vector<const compiler::OdeSystem *> &systems,
                 double t0, double t1, const EnsembleOptions &options)
{
    for (const compiler::OdeSystem *system : systems)
        support::panicIf(system == nullptr,
                         "simulateEnsemble: null system");
    return runImpl(nullptr, nullptr, &systems, t0, t1, options);
}

std::vector<SimResult>
BatchRunner::runImpl(const compiler::OdeSystem *homogeneous,
                     const std::vector<std::vector<double>> *initialStates,
                     const std::vector<const compiler::OdeSystem *> *systems,
                     double t0, double t1, const EnsembleOptions &options)
{
    const std::size_t count =
        homogeneous ? initialStates->size() : systems->size();
    if (count == 0)
        return {};
    if (t1 <= t0)
        throw SimError("simulate: t1 must exceed t0");

    auto systemOf = [&](std::size_t i) -> const compiler::OdeSystem & {
        return homogeneous ? *homogeneous : *(*systems)[i];
    };
    auto initialOf = [&](std::size_t i) -> const std::vector<double> & {
        return homogeneous ? (*initialStates)[i]
                           : (*systems)[i]->initialState();
    };
    for (std::size_t i = 0; i < count; ++i) {
        if (initialOf(i).size() != systemOf(i).size()) {
            throw SimError(cat("simulate: initial state has ",
                               initialOf(i).size(),
                               " entries, system has ",
                               systemOf(i).size()));
        }
    }

    // Partition into jobs: a stable group-by-structure pass collects
    // every instance sharing one fused program (interleaved batches
    // like [A, B, A, B, ...] still lane-batch per structure), then
    // each class splits into blocks of up to kMaxLanes. Partitioning
    // depends only on the batch, never on thread count, and results
    // are written by original index, so ordering is preserved. Both
    // integrators lane-batch; Rk4 blocks run the fixed-step driver,
    // Dopri5 blocks the step-voting adaptive driver.
    const bool laneEligible = options.laneBatching;
    const bool fma = options.sim.tapeFma;
    // Resolved once per batch (ARK_TAPE_REASSOC override folded in)
    // so every member of a lane class selects the same tape variant.
    const bool reassoc = expr::reassocEnabled(options.sim.tapeReassoc);
    // Resolved once per batch: the option gated by the ARK_JIT_FORCE
    // override. Kernel resolution itself stays per block (per merged
    // structure), so a mixed batch jits what it can.
    const bool jitOn = expr::jitEnabled(options.sim.jit);
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t i = 0; i < count; ++i) {
        if (laneEligible) {
            bool placed = false;
            for (std::vector<std::size_t> &cls : classes) {
                const compiler::OdeSystem &leader =
                    systemOf(cls.front());
                if (&systemOf(i) == &leader ||
                    expr::LaneTape::compatible(
                        leader.rhsTape(fma, reassoc),
                        systemOf(i).rhsTape(fma, reassoc))) {
                    cls.push_back(i);
                    placed = true;
                    break;
                }
            }
            if (placed)
                continue;
        }
        classes.push_back({i});
    }
    std::vector<Job> jobs;
    for (const std::vector<std::size_t> &cls : classes) {
        for (std::size_t base = 0; base < cls.size();
             base += expr::LaneTape::kMaxLanes) {
            std::size_t blockSize = std::min(
                expr::LaneTape::kMaxLanes, cls.size() - base);
            Job job;
            job.lane = blockSize >= 2;
            for (std::size_t k = 0; k < blockSize; ++k)
                job.members.push_back(cls[base + k]);
            jobs.push_back(std::move(job));
        }
    }

    // Flight recorder and stall watchdog are observation-only: the
    // ledger gets one record per instance after the pool drains, the
    // watchdog a heartbeat per completed instance. Cost when off: one
    // null-pointer check / one relaxed load.
    const std::uint64_t ledgerRun =
        options.ledger != nullptr
            ? options.ledger->beginRun(
                  telemetry::RunLedger::Workload::Ode, count)
            : 0;
    telemetry::StallWatchdog::Run watchdogRun("ode_ensemble", count);

    telemetry::ScopedSpan ensembleSpan("ark.sim.ensemble", count);
    if (telemetry::metricsEnabled()) {
        static telemetry::Counter &ensembles =
            telemetry::Registry::shared().counter("ark.sim.ensembles");
        static telemetry::Counter &instances =
            telemetry::Registry::shared().counter("ark.sim.instances");
        // Occupancy: lanes carried vs. SoA width paid, by width class.
        static telemetry::Counter &blockLanes =
            telemetry::Registry::shared().counter("ark.sim.block_lanes");
        static telemetry::Counter &blockWidth =
            telemetry::Registry::shared().counter("ark.sim.block_width");
        static telemetry::Counter *blocksByWidth[4] = {
            &telemetry::Registry::shared().counter(
                "ark.sim.lane_blocks_w1"),
            &telemetry::Registry::shared().counter(
                "ark.sim.lane_blocks_w2"),
            &telemetry::Registry::shared().counter(
                "ark.sim.lane_blocks_w4"),
            &telemetry::Registry::shared().counter(
                "ark.sim.lane_blocks_w8"),
        };
        ensembles.add();
        instances.add(count);
        for (const Job &job : jobs) {
            const std::size_t lanes = job.members.size();
            std::size_t width = 1, widthClass = 0;
            while (width < lanes) {
                width *= 2;
                ++widthClass;
            }
            blockLanes.add(lanes);
            blockWidth.add(width);
            blocksByWidth[widthClass]->add();
        }
    }

    std::vector<SimResult> results(count);
    std::vector<std::exception_ptr> errors(count);
    // Per-job tier-5 provenance for the ledger flush below: a job is
    // "jit" only when a kernel actually ran (not merely requested).
    std::vector<char> jitUsed(jobs.size(), 0);
    std::mutex progressMutex;
    std::size_t completed = 0;

    // Per-instance progress: both lane drivers report each instance
    // the moment it completes (finish, divergence retirement, or
    // cancellation), so `completed` ticks consistently across the
    // scalar and batched paths and stays strictly increasing under
    // lane retirement.
    auto instanceDone = [&](std::size_t done) {
        watchdogRun.heartbeat();
        if (done == 0 || !options.progress)
            return;
        std::lock_guard lock(progressMutex);
        completed += done;
        options.progress(completed, count);
    };

    auto runJob = [&](std::size_t jobIndex) {
        const Job &job = jobs[jobIndex];
        std::size_t reported = 0;
        std::function<void(std::size_t)> laneDone =
            [&](std::size_t done) {
                reported += done;
                instanceDone(done);
            };
        try {
            if (support::FaultInjector::shouldFire(
                    support::FaultSite::WorkerTask))
                throw SimError("fault injection: worker task fault");
            if (options.stop.stop_requested()) {
                // Skipped before starting: no samples at all.
                for (std::size_t member : job.members)
                    results[member] = cancelledResult(t0);
                laneDone(job.members.size());
            } else if (deadlinePassed(options.deadline)) {
                for (std::size_t member : job.members)
                    results[member] = deadlineResult(t0);
                laneDone(job.members.size());
            } else if (job.lane) {
                telemetry::ScopedSpan span("ark.sim.lane_block",
                                           job.members.size());
                std::vector<const expr::FusedTape *> tapes;
                std::vector<const std::vector<double> *> inits;
                std::vector<const compiler::OdeSystem *> blockSystems;
                tapes.reserve(job.members.size());
                inits.reserve(job.members.size());
                blockSystems.reserve(job.members.size());
                for (std::size_t member : job.members) {
                    tapes.push_back(
                        &systemOf(member).rhsTape(fma, reassoc));
                    inits.push_back(&initialOf(member));
                    blockSystems.push_back(&systemOf(member));
                }
                std::vector<SimResult> block;
                if (options.sim.method == Method::Rk4) {
                    std::optional<expr::LaneTape> tape =
                        expr::LaneTape::merge(tapes);
                    // Partitioning already verified compatibility.
                    support::panicIf(!tape.has_value(),
                                     "BatchRunner: lane merge failed");
                    BlockEvaluator rhs(*std::move(tape), jitOn);
                    jitUsed[jobIndex] = rhs.jitted();
                    block = runLaneRk4(rhs, inits, blockSystems, t0, t1,
                                       options.sim, options.stop,
                                       options.deadline, laneDone);
                } else {
                    LaneDopri5 driver(tapes, inits, blockSystems, t0,
                                      t1, options.sim, options.stop,
                                      options.deadline, laneDone, jitOn);
                    block = driver.run();
                    jitUsed[jobIndex] = driver.usedJit();
                }
                for (std::size_t k = 0; k < job.members.size(); ++k)
                    results[job.members[k]] = std::move(block[k]);
            } else {
                telemetry::ScopedSpan span("ark.sim.scalar");
                std::size_t member = job.members.front();
                BlockEvaluator rhs(
                    detail::scalarTape(systemOf(member), options.sim),
                    jitOn);
                jitUsed[jobIndex] = rhs.jitted();
                results[member] = detail::simulateWithStop(
                    systemOf(member), initialOf(member), t0, t1,
                    options.sim, options.stop, options.deadline, rhs);
                laneDone(1);
            }
        } catch (...) {
            if (options.structuredFaults) {
                // Capture the escape as a per-instance Fault failure:
                // the retry supervisor treats it as data, and the
                // batch as a whole no longer throws for it.
                std::string what = currentExceptionMessage();
                for (std::size_t member : job.members) {
                    SimResult faulted;
                    faulted.failure = detail::faultFailure(t0, what);
                    results[member] = std::move(faulted);
                }
            } else {
                for (std::size_t member : job.members)
                    errors[member] = std::current_exception();
            }
        }
        // A thrown block (step collapse, budget) still accounts for
        // every member so `completed` reaches `total` exactly once.
        if (reported < job.members.size())
            instanceDone(job.members.size() - reported);
    };

    unsigned requested = options.numThreads;
    if (requested == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        requested = hw ? hw : 1;
    }
    unsigned effective = static_cast<unsigned>(
        std::min<std::size_t>(requested, jobs.size()));
    if (effective <= 1) {
        for (std::size_t jobIndex = 0; jobIndex < jobs.size(); ++jobIndex)
            runJob(jobIndex);
    } else {
        pool_->ensure(effective - 1);
        pool_->run(jobs.size(), effective - 1, runJob);
    }

    if (options.ledger != nullptr) {
        // One pass at the flush point the metrics block already uses:
        // per-job tier/width/block plus each result's step counters
        // and structured failure. Instances about to rethrow have no
        // result to describe and are skipped.
        for (std::size_t jobIndex = 0; jobIndex < jobs.size();
             ++jobIndex) {
            const Job &job = jobs[jobIndex];
            std::size_t width = 1;
            while (width < job.members.size())
                width *= 2;
            for (std::size_t member : job.members) {
                if (errors[member])
                    continue;
                const SimResult &result = results[member];
                telemetry::RunLedger::Record record;
                record.runId = ledgerRun;
                record.index = member;
                record.workload = telemetry::RunLedger::Workload::Ode;
                record.tier =
                    jitUsed[jobIndex]
                        ? telemetry::RunLedger::Tier::Jit
                        : (job.lane ? telemetry::RunLedger::Tier::Lane
                                    : telemetry::RunLedger::Tier::Scalar);
                record.laneWidth = job.lane ? width : 1;
                record.lanes = job.members.size();
                record.blockId = jobIndex;
                record.stepsAccepted = result.steps;
                record.stepsRejected = result.rejectedSteps;
                record.ok = result.ok();
                if (result.failure.has_value()) {
                    record.failureReason =
                        abortReasonName(result.failure->reason);
                    record.failureMessage = result.failure->message;
                }
                options.ledger->append(std::move(record));
            }
        }
    }

    for (std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return results;
}

} // namespace ark::sim
