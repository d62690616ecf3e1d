#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "engine/jit.h"
#include "expr/cjit.h"
#include "expr/lanetape.h"
#include "expr/rewrite.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "support/ledger.h"
#include "support/logging.h"
#include "support/telemetry.h"

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
        static telemetry::Counter &widthOneFinishes =
            telemetry::Registry::shared().counter("ark.sim.spills");
        acceptedVotes.add(accepted);
        rejectedVotes.add(rejected);
        laneRetirements.add(retirements);
        widthOneFinishes.add(spills);
    }
};

/**
 * When a driver records a sample. All lanes of a block share one time
 * grid, so one gate serves the whole block. A time already recorded
 * is never recorded again: the forced final record after a step that
 * landed on t1 and recorded it would repeat the last sample.
 * Otherwise a forced record, recordDt = 0 (every step) or a step at
 * least recordDt past the last record passes. No record yet is -inf,
 * so any t0 records its initial sample.
 */
struct RecordGate
{
    double recordDt;
    double last = -std::numeric_limits<double>::infinity();

    /** Whether to record a sample at `t`; a yes marks `t` recorded. */
    bool
    take(double t, bool force)
    {
        if (t == last || !(force || recordDt <= 0.0 ||
                           t - last >= recordDt * (1.0 - 1e-12)))
            return false;
        last = t;
        return true;
    }
};

/** Lazily-grown pool cap; parked workers are cheap but not free. */
constexpr unsigned kMaxPoolThreads = 64;

/*
 * Failure constructors: every driver builds its reports here, so one
 * event reads the same at any lane width. `var` -1 means "not
 * variable-specific" (e.g. a nonfinite Dopri5 error estimate with every
 * state entry still finite).
 */

SimFailure
divergedFailure(const compiler::OdeSystem &system, int var, double t,
                std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::Diverged;
    failure.step = steps;
    failure.stateIndex = var;
    failure.time = t;
    const char *label =
        var >= 0
            ? system.vars()[static_cast<std::size_t>(var)].node.c_str()
            : "<error estimate>";
    failure.message = cat("state diverged (non-finite ", label,
                          " after step ", steps, " at t=", t, ")");
    return failure;
}

SimFailure
budgetFailure(double t, std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::BudgetExhausted;
    failure.step = steps;
    failure.time = t;
    failure.message =
        cat("step budget exhausted after step ", steps, " at t=", t);
    return failure;
}

/** First nonfinite entry of a (lane-strided) column, or -1. */
int
firstNonfinite(const double *column, std::size_t n, std::size_t stride)
{
    for (std::size_t i = 0; i < n; ++i)
        if (!std::isfinite(column[i * stride]))
            return static_cast<int>(i);
    return -1;
}

/**
 * One lane block's RHS: the members' programs merged into one
 * LaneTape (a single member merges to the width-1 program), routed
 * through the JIT native kernel when one resolves and the LaneTape
 * interpreter otherwise. Resolution happens once, at construction (a
 * cache hit after the first compile); every failure mode — jit off, no
 * toolchain, compile failure — leaves the kernel null and the block
 * runs interpreted with identical results. eval() holds the one
 * deterministic TapeNan poison site, which fires alike after either
 * tier. Owns the interpreter's scratch file, so an evaluator serves
 * one thread at a time.
 */
class BlockEvaluator
{
  public:
    BlockEvaluator(const std::vector<const expr::FusedTape *> &tapes,
                   bool jitOn)
        : tape_(merged(tapes)),
          kernel_(jitOn ? engine::jitKernel(tape_) : nullptr),
          file_(kernel_ != nullptr ? 0 : tape_.scratchSize())
    {
    }

    const expr::LaneTape &tape() const { return tape_; }

    bool jitted() const { return kernel_ != nullptr; }

    /** Evaluates the block: LaneTape::evalInto minus the scratch. */
    void
    eval(const double *state, double t, double *out)
    {
        if (kernel_ == nullptr)
            tape_.evalInto(state, t, out, file_.data());
        else
            kernel_->call(state, t, out, tape_.constants().data());
        // Deterministic fault injection: poison output 0 of lane 0
        // (the lane-minor layout puts it at out[0]) — a single-lane
        // numerical fault, so tests can watch one lane retire while
        // its block-mates keep integrating. Zero cost disarmed.
        if (support::FaultInjector::shouldFire(
                support::FaultSite::TapeNan) &&
            tape_.numOutputs() > 0)
            out[0] = std::numeric_limits<double>::quiet_NaN();
    }

  private:
    static expr::LaneTape
    merged(const std::vector<const expr::FusedTape *> &tapes)
    {
        std::optional<expr::LaneTape> tape = expr::LaneTape::merge(tapes);
        // Partitioning already verified compatibility.
        support::panicIf(!tape.has_value(),
                         "BatchRunner: lane merge failed");
        return *std::move(tape);
    }

    expr::LaneTape tape_;
    expr::JitKernelPtr kernel_;
    std::vector<double> file_;
};

/**
 * Lane-batched fixed-step classical RK4 over one block, at any width
 * from 1 (simulate(), singletons) to 8. All lanes share one time grid
 * and lanes never mix, so every lane's trajectory is bit-identical to
 * the same instance run alone at width 1. A lane whose state goes
 * nonfinite is masked out with a structured failure (recording stops,
 * its columns keep computing ignored garbage). Budget exhaustion is
 * likewise structural: when the shared step budget runs out every
 * still-active lane retires with a BudgetExhausted failure — exactly
 * what each would have reported alone.
 */
std::vector<SimResult>
runLaneRk4(BlockEvaluator &rhs,
           const std::vector<const std::vector<double> *> &initials,
           const std::vector<const std::vector<std::size_t> *> &saved,
           const std::vector<const compiler::OdeSystem *> &systems,
           double t0, double t1, const SimOptions &options)
{
    const expr::LaneTape &tape = rhs.tape();
    const std::size_t lanes = tape.lanes();
    const std::size_t width = tape.width();
    const std::size_t n = tape.numOutputs();
    const std::size_t m = n * width;
    std::vector<SimResult> results(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        results[l].trajectory = Trajectory(*saved[l]);
    VoteStats stats;

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
    // Retires every live lane whose state went nonfinite.
    auto retireDiverged = [&](double t, std::size_t steps) {
        for (std::size_t l = 0; l < lanes; ++l) {
            int bad = alive[l] ? firstNonfinite(state.data() + l, n, width)
                               : -1;
            if (bad < 0)
                continue;
            results[l].steps = steps;
            results[l].failure =
                divergedFailure(*systems[l], bad, t, steps);
            alive[l] = 0;
            --aliveCount;
            ++stats.retirements;
        }
    };
    retireDiverged(t0, 0);
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
            results[l].trajectory.reserve(estimate, saved[l]->size());

    RecordGate gate{options.recordDt};
    // Dead lanes are simply skipped.
    auto record = [&](double t, bool force) {
        if (!gate.take(t, force))
            return;
        for (std::size_t l = 0; l < lanes; ++l) {
            if (alive[l])
                results[l].trajectory.gatherSample(t, state.data() + l,
                                                   k1.data() + l, width);
        }
    };

    double t = t0;
    std::size_t steps = 0;
    // k1 doubles as the recorded slope at each sample point AND the
    // first stage of the next step: (state, t) is unchanged between
    // the end-of-step recording eval and the loop top, so each step
    // costs four block evaluations, not five.
    rhs.eval(state.data(), t, k1.data());
    record(t, true);

    while (t < t1 - 1e-15 * std::max(1.0, std::fabs(t1))) {
        double h = std::min(dt, t1 - t);
        if (steps >= options.maxSteps) {
            for (std::size_t l = 0; l < lanes; ++l) {
                if (!alive[l])
                    continue;
                results[l].steps = steps;
                results[l].failure = budgetFailure(t, steps);
            }
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
        retireDiverged(t, steps);
        if (aliveCount == 0)
            return results;
        rhs.eval(state.data(), t, k1.data());
        record(t, false);
    }
    record(t, true);
    for (std::size_t l = 0; l < lanes; ++l)
        if (alive[l])
            results[l].steps = steps;
    return results;
}

/** Dormand-Prince 5(4) tableau (Dormand & Prince 1980) and the PI
 *  step-size controller. */
struct Dopri5
{
    static constexpr double c2 = 1.0 / 5, c3 = 3.0 / 10, c4 = 4.0 / 5,
                            c5 = 8.0 / 9;
    static constexpr double a21 = 1.0 / 5;
    static constexpr double a31 = 3.0 / 40, a32 = 9.0 / 40;
    static constexpr double a41 = 44.0 / 45, a42 = -56.0 / 15,
                            a43 = 32.0 / 9;
    static constexpr double a51 = 19372.0 / 6561, a52 = -25360.0 / 2187,
                            a53 = 64448.0 / 6561, a54 = -212.0 / 729;
    static constexpr double a61 = 9017.0 / 3168, a62 = -355.0 / 33,
                            a63 = 46732.0 / 5247, a64 = 49.0 / 176,
                            a65 = -5103.0 / 18656;
    static constexpr double b1 = 35.0 / 384, b3 = 500.0 / 1113,
                            b4 = 125.0 / 192, b5 = -2187.0 / 6784,
                            b6 = 11.0 / 84;
    // Embedded 4th-order weights (error estimate).
    static constexpr double e1 = 5179.0 / 57600, e3 = 7571.0 / 16695,
                            e4 = 393.0 / 640, e5 = -92097.0 / 339200,
                            e6 = 187.0 / 2100, e7 = 1.0 / 40;

    /**
     * PI controller (Gustafsson) growth factor after an accepted step
     * with error norm `err` (previous accepted norm `prevErr`),
     * clamped to [0.2, 5].
     */
    static double
    acceptFactor(double err, double prevErr)
    {
        double factor = 0.9 *
                        std::pow(err > 0 ? err : 1e-10, -0.7 / 5.0) *
                        std::pow(prevErr > 0 ? prevErr : 1e-10, 0.4 / 5.0);
        return std::clamp(factor, 0.2, 5.0);
    }

    /** Shrink factor after a rejected step with error norm `err`. */
    static double
    rejectFactor(double err)
    {
        return std::max(0.1, 0.9 * std::pow(err, -0.2));
    }
};

/**
 * Lane-synchronized adaptive Dopri5 over one block ("step voting"),
 * at any width from 1 (simulate(), singletons) to 8.
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
 * With one lane the vote is that lane's own controller, so a width-1
 * block is the plain scalar Dopri5 recurrence. A lane whose error
 * estimate or accepted state goes nonfinite is retired on the spot
 * with a structured divergence failure and stops voting; the rest of
 * the block integrates on. When survivors fit half the SoA width the
 * block compacts: state/slope columns are re-merged into a fresh
 * LaneTape of the smaller width, down to width 1 for a last survivor.
 *
 * Numerics: the shared grid makes trajectories tolerance-level
 * equivalent to the members' width-1 runs (every accepted step
 * satisfied every lane's error test), not bitwise; the voting sequence
 * depends only on the block membership, so results are bit-identical
 * across thread counts. Step collapse on the shared step still throws
 * for the block as a unit (a tolerance/step-floor misconfiguration,
 * not a per-instance property); budget exhaustion is charged per lane
 * — a lane retires with a structured BudgetExhausted failure once the
 * shared accepted steps plus ITS OWN voted-down rejections reach
 * maxSteps, and the healthy lanes integrate on.
 */
class LaneDopri5
{
  public:
    LaneDopri5(const std::vector<const expr::FusedTape *> &tapes,
               const std::vector<const std::vector<double> *> &initials,
               const std::vector<const std::vector<std::size_t> *> &saved,
               const std::vector<const compiler::OdeSystem *> &systems,
               double t0, double t1, const SimOptions &options, bool jitOn)
        : tapes_(tapes), systems_(systems), options_(options), jitOn_(jitOn),
          n_(tapes.front()->numOutputs()), t1_(t1),
          end_(t1 - 1e-15 * std::max(1.0, std::fabs(t1))),
          hMax_(options.maxDt > 0 ? options.maxDt : (t1 - t0) / 10.0),
          t_(t0), h_(options.dt > 0 ? options.dt : (t1 - t0) / 1000.0),
          gate_{options.recordDt}, results_(tapes.size())
    {
        for (std::size_t member = 0; member < initials.size(); ++member) {
            results_[member].trajectory = Trajectory(*saved[member]);
            const std::vector<double> &init = *initials[member];
            int bad = firstNonfinite(init.data(), init.size(), 1);
            if (bad >= 0) {
                results_[member].failure =
                    divergedFailure(*systems_[member], bad, t0, 0);
                continue;
            }
            Lane lane;
            lane.member = member;
            lane.state = init;
            active_.push_back(std::move(lane));
        }
        std::size_t estimate =
            options.recordDt > 0
                ? static_cast<std::size_t>((t1 - t0) / options.recordDt) + 4
                : 256;
        estimate = std::min<std::size_t>(estimate, std::size_t{1} << 20);
        for (const Lane &lane : active_)
            results_[lane.member].trajectory.reserve(
                estimate, saved[lane.member]->size());
    }

    ~LaneDopri5()
    {
        stats_.accepted = steps_;
        stats_.rejected = rejectedShared_;
        // stats_'s own destructor flushes to the registry.
    }

    /** True when any block ran a JIT kernel — drives the run
     *  ledger's tier attribution. */
    bool usedJit() const { return usedJit_; }

    std::vector<SimResult>
    run()
    {
        // The first block evaluation also produces the k1 slope for
        // the initial record; after a compaction the slopes carry
        // over and nothing is re-recorded. Even a range inside the
        // loop epsilon (t1 ~ t0) runs one block, which records the
        // initial sample; the forced final record finds that time
        // already recorded, so the trajectory holds one sample.
        for (bool initial = true; !active_.empty(); initial = false) {
            // A multi-member job whose survivors dwindled to one
            // finishes at width 1: the ark.sim.spills tally.
            if (active_.size() == 1 && results_.size() > 1)
                ++stats_.spills;
            if (runBlock(initial) == Status::Done)
                break;
        }
        // A copy on purpose: it drops the capacity the trajectories
        // reserved from the recordDt bound but never filled. Moving
        // them out raised sec45-crossval's peak RSS by about 40 MB
        // when it stored every state.
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

    /** Integrates the current active set as one lane block. */
    Status
    runBlock(bool initial)
    {
        std::vector<const expr::FusedTape *> blockTapes;
        blockTapes.reserve(active_.size());
        for (const Lane &lane : active_)
            blockTapes.push_back(tapes_[lane.member]);
        BlockEvaluator rhs(blockTapes, jitOn_);
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

        auto record = [&](double t, bool force) {
            if (!gate_.take(t, force))
                return;
            for (std::size_t s = 0; s < L; ++s) {
                if (alive[s])
                    results_[active_[s].member].trajectory.gatherSample(
                        t, state.data() + s, k1.data() + s, W);
            }
        };

        // Ends lane s's run with `failure` at the current step.
        auto retire = [&](std::size_t s, SimFailure failure) {
            SimResult &r = results_[active_[s].member];
            r.steps = steps_;
            r.rejectedSteps = active_[s].rejected;
            r.failure = std::move(failure);
            alive[s] = 0;
            --aliveCount;
            ++stats_.retirements;
        };
        auto retireDiverged = [&](std::size_t s, int var) {
            retire(s, divergedFailure(*systems_[active_[s].member], var,
                                      t_, steps_));
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
            // Per-lane budget: shared accepted steps plus the lane's
            // own voted-down rejections. Only the exhausted lane
            // retires; its block-mates vote on.
            bool budgetRetired = false;
            for (std::size_t s = 0; s < L; ++s) {
                if (!alive[s] ||
                    steps_ + active_[s].rejected < options_.maxSteps)
                    continue;
                retire(s, budgetFailure(t_, steps_));
                budgetRetired = true;
            }
            if (aliveCount == 0)
                return Status::Done;
            if (budgetRetired && aliveCount <= W / 2) {
                compactInto(state, k1, alive, W);
                return Status::Compact;
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

            // A nonfinite error estimate means a stage or the
            // candidate state blew up: error control can never accept
            // the lane again, and rejecting would grind the shared
            // step toward collapse. Retire it right here; the
            // survivors keep voting.
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
                // A lane is alive here, so the vote replaces the seed.
                double factor = std::numeric_limits<double>::infinity();
                for (std::size_t s = 0; s < L; ++s) {
                    if (!alive[s])
                        continue;
                    factor = std::min(factor,
                                      Dopri5::acceptFactor(
                                          err[s], active_[s].prevErr));
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
            // live columns and let the caller re-merge them narrower —
            // but only while integration work remains. Compacting on
            // the very step that reached t1 would skip the forced
            // final record below and end the surviving trajectories
            // on the last gated sample instead of t1.
            if (aliveCount < L && t_ < end_ && aliveCount <= W / 2) {
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
        return Status::Done;
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

    const std::vector<const expr::FusedTape *> &tapes_;
    const std::vector<const compiler::OdeSystem *> &systems_;
    const SimOptions &options_;
    const bool jitOn_;     ///< Try JIT kernels per block.
    bool usedJit_ = false; ///< Any block actually ran one.

    const std::size_t n_;  ///< State variables per instance.
    const double t1_;
    const double end_;     ///< t1 minus the loop-exit epsilon.
    const double hMax_;

    double t_;             ///< Shared integration time.
    double h_;             ///< Shared (voted) step size.
    RecordGate gate_;
    std::size_t steps_ = 0;          ///< Shared accepted steps.
    std::size_t rejectedShared_ = 0; ///< Shared rejected block steps.
    VoteStats stats_;                ///< Registry tallies, flushed once.
    std::vector<Lane> active_;
    std::vector<SimResult> results_;
};

} // namespace

std::vector<std::size_t>
detail::savedStates(const compiler::OdeSystem &system,
                    const std::vector<std::string> &save)
{
    const std::vector<compiler::StateVar> &vars = system.vars();
    auto saves = [&](const std::string &node) {
        return std::find(save.begin(), save.end(), node) != save.end();
    };
    std::vector<std::size_t> states;
    for (std::size_t i = 0; i < vars.size(); ++i)
        if (save.empty() || saves(vars[i].node))
            states.push_back(i);
    for (const std::string &node : save) {
        if (std::none_of(vars.begin(), vars.end(),
                         [&](const compiler::StateVar &var) {
                             return var.node == node;
                         }))
            throw SimError(cat("simulate: no state to save for node '",
                               node, "'"));
    }
    return states;
}

std::vector<SimResult>
detail::integrateBlock(
    const std::vector<const compiler::OdeSystem *> &systems,
    const std::vector<const std::vector<double> *> &initials,
    const std::vector<const std::vector<std::size_t> *> &saved, double t0,
    double t1, const SimOptions &options, expr::RoundingMode rounding,
    bool jitOn, bool *usedJit)
{
    std::vector<const expr::FusedTape *> tapes;
    tapes.reserve(systems.size());
    for (const compiler::OdeSystem *system : systems)
        tapes.push_back(&system->rhsTape(rounding));

    std::vector<SimResult> results;
    bool jitted = false;
    if (options.method == Method::Rk4) {
        BlockEvaluator rhs(tapes, jitOn);
        jitted = rhs.jitted();
        results =
            runLaneRk4(rhs, initials, saved, systems, t0, t1, options);
    } else {
        // Merges per block itself: compaction re-merges survivors.
        LaneDopri5 driver(tapes, initials, saved, systems, t0, t1, options,
                          jitOn);
        results = driver.run();
        jitted = driver.usedJit();
    }
    if (usedJit != nullptr)
        *usedJit = jitted;
    return results;
}

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
     * `activeWorkers` pool workers. The job must not throw (a throw
     * would terminate a worker); both callers catch per index.
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
    // Every index runs even when some throw; the lowest throwing
    // index's exception is rethrown once the batch has drained, so
    // the caller sees what a serial loop's first failure would be, at
    // any thread count, and no pool worker ever unwinds.
    std::mutex failureMutex;
    std::size_t failedAt = count;
    std::exception_ptr failure;
    const std::function<void(std::size_t)> guarded = [&](std::size_t i) {
        try {
            job(i);
        } catch (...) {
            std::lock_guard lock(failureMutex);
            if (i < failedAt) {
                failedAt = i;
                failure = std::current_exception();
            }
        }
    };
    if (effective <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            guarded(i);
    } else {
        pool_->ensure(effective - 1);
        pool_->run(count, effective - 1, guarded);
    }
    if (failure)
        std::rethrow_exception(failure);
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
    // The saved states of each system (one for a homogeneous batch),
    // resolved before any instance integrates: a node that some system
    // lacks is a caller error, like a wrong initial-state size.
    std::vector<std::vector<std::size_t>> saved(homogeneous ? 1 : count);
    for (std::size_t i = 0; i < saved.size(); ++i)
        saved[i] = detail::savedStates(systemOf(i), options.sim.save);

    // Partition into jobs: a stable group-by-structure pass collects
    // every instance sharing one fused program (interleaved batches
    // like [A, B, A, B, ...] still lane-batch per structure), then
    // each class splits into blocks of up to kMaxLanes. Partitioning
    // depends only on the batch, never on thread count, and results
    // are written by original index, so ordering is preserved. Every
    // job — singletons and laneBatching=false instances included — is
    // one lane block run by detail::integrateBlock.
    const bool laneEligible = options.laneBatching;
    // Resolved once per batch (ARK_ROUNDING override folded in) so
    // every member of a lane class runs the same mode's program.
    const expr::RoundingMode rounding =
        expr::roundingMode(options.sim.rounding);
    // Resolved once per batch: the option gated by the ARK_JIT_FORCE
    // override. Kernel resolution itself stays per block (per merged
    // structure), so a mixed batch jits what it can.
    const bool jitOn = expr::jitEnabled(options.sim.jit);
    // Classes are keyed by tape shape (the LaneTape::compatible
    // relation), in order of first appearance.
    std::vector<std::vector<std::size_t>> classes;
    std::unordered_map<expr::TapeShape, std::size_t, expr::TapeShapeHash>
        classOf;
    for (std::size_t i = 0; i < count; ++i) {
        if (laneEligible) {
            auto [it, added] = classOf.try_emplace(
                systemOf(i).rhsTape(rounding).shape(), classes.size());
            if (!added) {
                classes[it->second].push_back(i);
                continue;
            }
        }
        classes.push_back({i});
    }
    // One job per block: its members' indices into the batch.
    std::vector<std::vector<std::size_t>> jobs;
    for (const std::vector<std::size_t> &cls : classes) {
        for (std::size_t base = 0; base < cls.size();
             base += expr::LaneTape::kMaxLanes) {
            std::size_t end =
                std::min(cls.size(), base + expr::LaneTape::kMaxLanes);
            jobs.emplace_back(cls.begin() + static_cast<std::ptrdiff_t>(base),
                              cls.begin() + static_cast<std::ptrdiff_t>(end));
        }
    }

    // The flight recorder is observation-only: the ledger gets one
    // record per instance after the pool drains. Cost when off: one
    // null-pointer check.
    const std::uint64_t ledgerRun =
        options.ledger != nullptr
            ? options.ledger->beginRun(
                  telemetry::RunLedger::Workload::Ode, count)
            : 0;

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
        for (const std::vector<std::size_t> &members : jobs) {
            const std::size_t lanes = members.size();
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
    // Per-job JIT provenance for the ledger flush below: a job is
    // "jit" only when a kernel actually ran (not merely requested).
    std::vector<char> jitUsed(jobs.size(), 0);

    auto runJob = [&](std::size_t jobIndex) {
        const std::vector<std::size_t> &members = jobs[jobIndex];
        try {
            if (support::FaultInjector::shouldFire(
                    support::FaultSite::WorkerTask))
                throw SimError("fault injection: worker task fault");
            // Singletons run the same drivers at width 1 but keep
            // their own span (and ledger tier, below).
            const bool lane = members.size() >= 2;
            telemetry::ScopedSpan span(lane ? "ark.sim.lane_block"
                                            : "ark.sim.scalar");
            if (lane)
                span.setArg(members.size());
            std::vector<const compiler::OdeSystem *> blockSystems;
            std::vector<const std::vector<double> *> inits;
            std::vector<const std::vector<std::size_t> *> saves;
            blockSystems.reserve(members.size());
            inits.reserve(members.size());
            saves.reserve(members.size());
            for (std::size_t member : members) {
                blockSystems.push_back(&systemOf(member));
                inits.push_back(&initialOf(member));
                saves.push_back(&saved[homogeneous ? 0 : member]);
            }
            bool jitted = false;
            std::vector<SimResult> block = detail::integrateBlock(
                blockSystems, inits, saves, t0, t1, options.sim, rounding,
                jitOn, &jitted);
            jitUsed[jobIndex] = jitted;
            for (std::size_t k = 0; k < members.size(); ++k)
                results[members[k]] = std::move(block[k]);
        } catch (...) {
            for (std::size_t member : members)
                errors[member] = std::current_exception();
        }
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
            const std::vector<std::size_t> &members = jobs[jobIndex];
            std::size_t width = 1;
            while (width < members.size())
                width *= 2;
            for (std::size_t member : members) {
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
                        : (members.size() >= 2
                               ? telemetry::RunLedger::Tier::Lane
                               : telemetry::RunLedger::Tier::Scalar);
                record.laneWidth = width;
                record.lanes = members.size();
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
