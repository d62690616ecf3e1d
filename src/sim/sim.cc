#include "sim/sim.h"

#include <algorithm>
#include <cmath>

#include "sim/batch.h"
#include "sim/blockeval.h"
#include "sim/dopri5.h"
#include "support/error.h"
#include "support/logging.h"

namespace ark::sim {

using support::cat;
using support::SimError;

void
Trajectory::addSample(double t, const std::vector<double> &state,
                      const std::vector<double> *deriv)
{
    if (times_.empty())
        stateDim_ = state.size();
    support::panicIf(state.size() != stateDim_,
                     "Trajectory::addSample: state dimension changed");
    support::panicIf(deriv && deriv->size() != stateDim_,
                     "Trajectory::addSample: deriv dimension mismatch");
    times_.push_back(t);
    states_.insert(states_.end(), state.begin(), state.end());
    // Invariant: derivs_ mirrors states_ only while every sample has
    // carried a derivative; the first omission drops slopes for good
    // (misaligned Hermite data must never survive silently).
    if (derivsDropped_)
        return;
    if (deriv) {
        derivs_.insert(derivs_.end(), deriv->begin(), deriv->end());
    } else {
        derivs_.clear();
        derivs_.shrink_to_fit();
        derivsDropped_ = true;
    }
}

void
Trajectory::reserve(std::size_t samples, std::size_t stateDim)
{
    times_.reserve(samples);
    states_.reserve(samples * stateDim);
    if (!derivsDropped_)
        derivs_.reserve(samples * stateDim);
}

std::span<const double>
Trajectory::state(std::size_t sample) const
{
    support::panicIf(sample >= times_.size(),
                     "Trajectory::state: sample out of range");
    return {states_.data() + sample * stateDim_, stateDim_};
}

std::vector<double>
Trajectory::series(int stateIndex) const
{
    auto idx = static_cast<std::size_t>(stateIndex);
    support::panicIf(idx >= stateDim_ && !times_.empty(),
                     "Trajectory::series: state index out of range");
    std::vector<double> out;
    out.reserve(times_.size());
    for (std::size_t s = 0; s < times_.size(); ++s)
        out.push_back(states_[s * stateDim_ + idx]);
    return out;
}

double
Trajectory::sampleAt(int stateIndex, double t) const
{
    if (times_.empty())
        throw SimError("sampleAt on an empty trajectory");
    auto idx = static_cast<std::size_t>(stateIndex);
    support::panicIf(idx >= stateDim_,
                     "Trajectory::sampleAt: state index out of range");
    if (t <= times_.front())
        return states_[idx];
    if (t >= times_.back())
        return states_[(times_.size() - 1) * stateDim_ + idx];
    auto it = std::lower_bound(times_.begin(), times_.end(), t);
    std::size_t hi = static_cast<std::size_t>(it - times_.begin());
    std::size_t lo = hi - 1;
    double span = times_[hi] - times_[lo];
    if (span <= 0)
        return states_[lo * stateDim_ + idx];
    double y0 = states_[lo * stateDim_ + idx];
    double y1 = states_[hi * stateDim_ + idx];
    if (hasDerivs()) {
        // Cubic Hermite using the recorded slopes.
        double s = (t - times_[lo]) / span;
        double s2 = s * s;
        double s3 = s2 * s;
        double m0 = derivs_[lo * stateDim_ + idx];
        double m1 = derivs_[hi * stateDim_ + idx];
        return (2 * s3 - 3 * s2 + 1) * y0 +
               (s3 - 2 * s2 + s) * span * m0 +
               (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * span * m1;
    }
    double alpha = (t - times_[lo]) / span;
    return y0 + alpha * (y1 - y0);
}

std::vector<double>
Trajectory::resample(int stateIndex, double t0, double t1,
                     std::size_t n) const
{
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double t = n > 1 ? t0 + (t1 - t0) * static_cast<double>(i) /
                               static_cast<double>(n - 1)
                         : t0;
        out.push_back(sampleAt(stateIndex, t));
    }
    return out;
}

namespace {

/** Index of the first nonfinite entry, or -1 when all are finite. */
int
firstNonfinite(const std::vector<double> &state)
{
    for (std::size_t i = 0; i < state.size(); ++i)
        if (!std::isfinite(state[i]))
            return static_cast<int>(i);
    return -1;
}

/** Shared integration driver state. */
struct Driver
{
    const compiler::OdeSystem &system;
    const SimOptions &options;
    const std::stop_token &stop;
    const std::optional<std::chrono::steady_clock::time_point> &deadline;
    /** Width-1 evaluator of the RHS program options select. */
    detail::BlockEvaluator &rhs;
    SimResult result;
    double lastRecord = -1.0;
    double recordDt;

    Driver(const compiler::OdeSystem &sys, const SimOptions &opts,
           const std::stop_token &stopToken,
           const std::optional<std::chrono::steady_clock::time_point>
               &deadlinePoint,
           detail::BlockEvaluator &evaluator)
        : system(sys), options(opts), stop(stopToken),
          deadline(deadlinePoint), rhs(evaluator),
          recordDt(opts.recordDt)
    {
    }

    void
    evalRhs(const double *state, double t, double *dstate)
    {
        rhs.eval(state, t, dstate);
    }

    void
    record(double t, const std::vector<double> &state, bool force,
           const std::vector<double> *deriv = nullptr)
    {
        if (force || recordDt <= 0.0 ||
            t - lastRecord >= recordDt * (1.0 - 1e-12)) {
            result.trajectory.addSample(t, state, deriv);
            lastRecord = t;
        }
    }

    /** Records a divergence abort; the integrator must return. */
    void
    failDiverged(int var, double t)
    {
        result.failure =
            detail::divergedFailure(system, var, t, result.steps);
    }

    /** Records a budget-exhaustion abort; the integrator must return. */
    void
    failBudget(double t)
    {
        result.failure = detail::budgetFailure(t, result.steps);
    }

    /**
     * True when the stop token fired or the wall-clock deadline
     * passed; records the matching structured failure.
     */
    bool
    cancelled(double t)
    {
        if (stop.stop_requested()) {
            result.failure = detail::cancelledFailure(t, result.steps);
            return true;
        }
        if (deadline &&
            std::chrono::steady_clock::now() >= *deadline) {
            result.failure = detail::deadlineFailure(t, result.steps);
            return true;
        }
        return false;
    }
};

/** Classical fixed-step fourth-order Runge-Kutta. */
void
runRk4(Driver &driver, std::vector<double> &state, double t0, double t1,
       double dt)
{
    const std::size_t n = driver.system.size();
    std::vector<double> k1(n), k2(n), k3(n), k4(n), tmp(n);
    double t = t0;
    // k1 doubles as the recorded slope at each sample point AND the
    // first stage of the next step: (state, t) is unchanged between
    // the end-of-step recording eval and the loop top, so each step
    // costs four RHS evaluations, not five.
    driver.evalRhs(state.data(), t, k1.data());
    driver.record(t, state, true, &k1);
    while (t < t1 - 1e-15 * std::max(1.0, std::fabs(t1))) {
        double h = std::min(dt, t1 - t);
        if (driver.result.steps >= driver.options.maxSteps) {
            driver.failBudget(t);
            return;
        }
        if (driver.cancelled(t))
            return;
        for (std::size_t i = 0; i < n; ++i)
            tmp[i] = state[i] + 0.5 * h * k1[i];
        driver.evalRhs(tmp.data(), t + 0.5 * h, k2.data());
        for (std::size_t i = 0; i < n; ++i)
            tmp[i] = state[i] + 0.5 * h * k2[i];
        driver.evalRhs(tmp.data(), t + 0.5 * h, k3.data());
        for (std::size_t i = 0; i < n; ++i)
            tmp[i] = state[i] + h * k3[i];
        driver.evalRhs(tmp.data(), t + h, k4.data());
        for (std::size_t i = 0; i < n; ++i) {
            state[i] += h / 6.0 *
                        (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
        ++driver.result.steps;
        if (int bad = firstNonfinite(state); bad >= 0) {
            driver.failDiverged(bad, t);
            return;
        }
        driver.evalRhs(state.data(), t, k1.data());
        driver.record(t, state, false, &k1);
    }
    driver.record(t, state, true, &k1);
}

/** Dormand-Prince 5(4) adaptive integrator with PI step control. */
void
runDopri5(Driver &driver, std::vector<double> &state, double t0, double t1,
          double h0, double hMax)
{
    // Tableau and controller shared with the lane-batched adaptive
    // driver (sim/dopri5.h): the voting driver's spill path only
    // continues a lane exactly like this loop because both use the
    // identical coefficient expressions.
    using detail::Dopri5;
    constexpr double c2 = Dopri5::c2, c3 = Dopri5::c3, c4 = Dopri5::c4,
                     c5 = Dopri5::c5;
    constexpr double a21 = Dopri5::a21;
    constexpr double a31 = Dopri5::a31, a32 = Dopri5::a32;
    constexpr double a41 = Dopri5::a41, a42 = Dopri5::a42,
                     a43 = Dopri5::a43;
    constexpr double a51 = Dopri5::a51, a52 = Dopri5::a52,
                     a53 = Dopri5::a53, a54 = Dopri5::a54;
    constexpr double a61 = Dopri5::a61, a62 = Dopri5::a62,
                     a63 = Dopri5::a63, a64 = Dopri5::a64,
                     a65 = Dopri5::a65;
    constexpr double b1 = Dopri5::b1, b3 = Dopri5::b3, b4 = Dopri5::b4,
                     b5 = Dopri5::b5, b6 = Dopri5::b6;
    constexpr double e1 = Dopri5::e1, e3 = Dopri5::e3, e4 = Dopri5::e4,
                     e5 = Dopri5::e5, e6 = Dopri5::e6, e7 = Dopri5::e7;

    const std::size_t n = driver.system.size();
    std::vector<double> k1(n), k2(n), k3(n), k4(n), k5(n), k6(n), k7(n);
    std::vector<double> tmp(n), next(n);

    double t = t0;
    double h = h0;
    double prevErr = 1.0;
    driver.evalRhs(state.data(), t, k1.data());
    driver.record(t, state, true, &k1);

    while (t < t1 - 1e-15 * std::max(1.0, std::fabs(t1))) {
        h = std::min(h, t1 - t);
        h = std::min(h, hMax);
        if (h < 1e-18 * std::max(1.0, std::fabs(t)))
            throw SimError(cat("step size collapsed at t=", t));
        if (driver.result.steps + driver.result.rejectedSteps >=
            driver.options.maxSteps) {
            driver.failBudget(t);
            return;
        }
        if (driver.cancelled(t))
            return;

        for (std::size_t i = 0; i < n; ++i)
            tmp[i] = state[i] + h * a21 * k1[i];
        driver.evalRhs(tmp.data(), t + c2 * h, k2.data());
        for (std::size_t i = 0; i < n; ++i)
            tmp[i] = state[i] + h * (a31 * k1[i] + a32 * k2[i]);
        driver.evalRhs(tmp.data(), t + c3 * h, k3.data());
        for (std::size_t i = 0; i < n; ++i) {
            tmp[i] = state[i] +
                     h * (a41 * k1[i] + a42 * k2[i] + a43 * k3[i]);
        }
        driver.evalRhs(tmp.data(), t + c4 * h, k4.data());
        for (std::size_t i = 0; i < n; ++i) {
            tmp[i] = state[i] + h * (a51 * k1[i] + a52 * k2[i] +
                                     a53 * k3[i] + a54 * k4[i]);
        }
        driver.evalRhs(tmp.data(), t + c5 * h, k5.data());
        for (std::size_t i = 0; i < n; ++i) {
            tmp[i] = state[i] + h * (a61 * k1[i] + a62 * k2[i] +
                                     a63 * k3[i] + a64 * k4[i] +
                                     a65 * k5[i]);
        }
        driver.evalRhs(tmp.data(), t + h, k6.data());
        for (std::size_t i = 0; i < n; ++i) {
            next[i] = state[i] + h * (b1 * k1[i] + b3 * k3[i] +
                                      b4 * k4[i] + b5 * k5[i] +
                                      b6 * k6[i]);
        }
        driver.evalRhs(next.data(), t + h, k7.data());

        // Error estimate: difference of 5th and embedded 4th order.
        double errNorm = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double y4 = state[i] + h * (e1 * k1[i] + e3 * k3[i] +
                                        e4 * k4[i] + e5 * k5[i] +
                                        e6 * k6[i] + e7 * k7[i]);
            double scale = driver.options.absTol +
                           driver.options.relTol *
                               std::max(std::fabs(state[i]),
                                        std::fabs(next[i]));
            double e = (next[i] - y4) / scale;
            errNorm += e * e;
        }
        errNorm = std::sqrt(errNorm / static_cast<double>(n));

        // A nonfinite error estimate means a stage or the candidate
        // state blew up: error control can never accept again, and the
        // reject branch would grind the step down toward collapse
        // while integrating NaNs. Abort structurally instead.
        if (!std::isfinite(errNorm)) {
            int bad = firstNonfinite(next);
            if (bad < 0)
                bad = firstNonfinite(k7);
            driver.failDiverged(bad, t);
            return;
        }

        if (errNorm <= 1.0) {
            t += h;
            state = next;
            std::swap(k1, k7); // FSAL: last stage is next first stage
            ++driver.result.steps;
            if (int bad = firstNonfinite(state); bad >= 0) {
                driver.failDiverged(bad, t);
                return;
            }
            driver.record(t, state, false, &k1);
            // PI controller (Gustafsson): smooth step adaptation.
            h *= Dopri5::acceptFactor(errNorm, prevErr);
            prevErr = errNorm;
        } else {
            ++driver.result.rejectedSteps;
            h *= Dopri5::rejectFactor(errNorm);
        }
    }
    driver.record(t, state, true, &k1);
}

} // namespace

SimResult
simulate(const compiler::OdeSystem &system, double t0, double t1,
         const SimOptions &options)
{
    return simulate(system, system.initialState(), t0, t1, options);
}

SimResult
simulate(const compiler::OdeSystem &system,
         const std::vector<double> &initial, double t0, double t1,
         const SimOptions &options)
{
    detail::BlockEvaluator rhs(detail::scalarTape(system, options),
                               /*jitOn=*/false);
    return detail::simulateWithStop(system, initial, t0, t1, options,
                                    std::stop_token{}, {}, rhs);
}

const char *
abortReasonName(AbortReason reason)
{
    switch (reason) {
    case AbortReason::Diverged:
        return "diverged";
    case AbortReason::Cancelled:
        return "cancelled";
    case AbortReason::BudgetExhausted:
        return "budget_exhausted";
    case AbortReason::DeadlineExceeded:
        return "deadline_exceeded";
    case AbortReason::Fault:
        return "fault";
    }
    return "unknown";
}

SimFailure
detail::divergedFailure(const compiler::OdeSystem &system, int var,
                        double t, std::size_t steps)
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
detail::cancelledFailure(double t, std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::Cancelled;
    failure.step = steps;
    failure.time = t;
    failure.message = cat("cancelled at t=", t);
    return failure;
}

SimFailure
detail::budgetFailure(double t, std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::BudgetExhausted;
    failure.step = steps;
    failure.time = t;
    failure.message =
        cat("step budget exhausted after step ", steps, " at t=", t);
    return failure;
}

SimFailure
detail::deadlineFailure(double t, std::size_t steps)
{
    SimFailure failure;
    failure.reason = AbortReason::DeadlineExceeded;
    failure.step = steps;
    failure.time = t;
    failure.message = cat("deadline exceeded at t=", t);
    return failure;
}

SimFailure
detail::faultFailure(double t, const std::string &what)
{
    SimFailure failure;
    failure.reason = AbortReason::Fault;
    failure.time = t;
    failure.message = cat("internal fault: ", what);
    return failure;
}

SimResult
detail::simulateWithStop(
    const compiler::OdeSystem &system, const std::vector<double> &initial,
    double t0, double t1, const SimOptions &options,
    const std::stop_token &stop,
    const std::optional<std::chrono::steady_clock::time_point> &deadline,
    BlockEvaluator &rhs)
{
    if (t1 <= t0)
        throw SimError("simulate: t1 must exceed t0");
    if (initial.size() != system.size()) {
        throw SimError(cat("simulate: initial state has ",
                           initial.size(), " entries, system has ",
                           system.size()));
    }
    Driver driver(system, options, stop, deadline, rhs);
    std::vector<double> state = initial;
    if (int bad = firstNonfinite(state); bad >= 0) {
        driver.failDiverged(bad, t0);
        return std::move(driver.result);
    }

    double dt = options.dt > 0 ? options.dt : (t1 - t0) / 1000.0;
    double hMax = options.maxDt > 0 ? options.maxDt : (t1 - t0) / 10.0;

    // Pre-size the trajectory from the recording stride (or the fixed
    // step count) so the hot loop never reallocates mid-integration.
    std::size_t estimate =
        options.recordDt > 0
            ? static_cast<std::size_t>((t1 - t0) / options.recordDt) + 4
        : options.method == Method::Rk4
            ? static_cast<std::size_t>((t1 - t0) / dt) + 4
            : 256;
    driver.result.trajectory.reserve(
        std::min<std::size_t>(estimate, std::size_t{1} << 20),
        system.size());

    if (options.method == Method::Rk4)
        runRk4(driver, state, t0, t1, dt);
    else
        runDopri5(driver, state, t0, t1, dt, hMax);
    return std::move(driver.result);
}

std::vector<SimResult>
simulateEnsemble(const compiler::OdeSystem &system,
                 const std::vector<std::vector<double>> &initialStates,
                 double t0, double t1, const EnsembleOptions &options)
{
    return BatchRunner::shared().run(system, initialStates, t0, t1,
                                     options);
}

std::vector<SimResult>
simulateEnsemble(const std::vector<const compiler::OdeSystem *> &systems,
                 double t0, double t1, const EnsembleOptions &options)
{
    return BatchRunner::shared().run(systems, t0, t1, options);
}

SimResult
simulateToSteadyState(const compiler::OdeSystem &system, double t0,
                      double tMax, double derivTol,
                      const SimOptions &options)
{
    SimOptions opts = options;
    if (opts.recordDt <= 0)
        opts.recordDt = (tMax - t0) / 2000.0;
    SimResult run = simulate(system, t0, tMax, opts);
    // A diverged run never settled: don't let a quiet early sample of
    // the partial trajectory masquerade as steady state.
    if (!run.ok())
        return run;

    std::vector<double> deriv(system.size());
    detail::BlockEvaluator rhs(
        expr::LaneTape::broadcast(system.fusedTape(), 1),
        /*jitOn=*/false);
    for (std::size_t s = 0; s < run.trajectory.size(); ++s) {
        rhs.eval(run.trajectory.state(s).data(), run.trajectory.time(s),
                 deriv.data());
        double maxDeriv = 0.0;
        for (double d : deriv)
            maxDeriv = std::max(maxDeriv, std::fabs(d));
        if (maxDeriv < derivTol) {
            run.reachedSteadyState = true;
            break;
        }
    }
    return run;
}

} // namespace ark::sim
