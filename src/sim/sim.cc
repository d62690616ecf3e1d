#include "sim/sim.h"

#include <algorithm>
#include <cmath>

#include "sim/batch.h"
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

std::span<const double>
Trajectory::deriv(std::size_t sample) const
{
    support::panicIf(sample >= times_.size(),
                     "Trajectory::deriv: sample out of range");
    support::panicIf(!hasDerivs(),
                     "Trajectory::deriv: no derivatives recorded");
    return {derivs_.data() + sample * stateDim_, stateDim_};
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
    if (t1 <= t0)
        throw SimError("simulate: t1 must exceed t0");
    if (initial.size() != system.size()) {
        throw SimError(cat("simulate: initial state has ",
                           initial.size(), " entries, system has ",
                           system.size()));
    }
    // One interpreted one-lane block: the same driver every ensemble
    // job runs, without the ensemble's pool, span or ledger.
    std::vector<SimResult> results = detail::integrateBlock(
        {&system}, {&initial}, t0, t1, options, /*jitOn=*/false,
        std::stop_token{}, std::nullopt, [](std::size_t) {});
    return std::move(results.front());
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

    // Every sample carries the slope the run integrated there.
    for (std::size_t s = 0; s < run.trajectory.size(); ++s) {
        double maxDeriv = 0.0;
        for (double d : run.trajectory.deriv(s))
            maxDeriv = std::max(maxDeriv, std::fabs(d));
        if (maxDeriv < derivTol) {
            run.reachedSteadyState = true;
            break;
        }
    }
    return run;
}

} // namespace ark::sim
