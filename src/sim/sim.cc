#include "sim/sim.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/batch.h"
#include "support/error.h"
#include "support/logging.h"

namespace ark::sim {

using support::cat;
using support::SimError;

Trajectory::Trajectory(std::vector<std::size_t> columns)
    : columns_(std::move(columns))
{
}

void
Trajectory::addSample(double t, const std::vector<double> &state,
                      const std::vector<double> *deriv)
{
    if (times_.empty() && columns_.empty()) {
        columns_.resize(state.size());
        std::iota(columns_.begin(), columns_.end(), std::size_t{0});
    }
    support::panicIf(state.size() != columns_.size(),
                     "Trajectory::addSample: state dimension changed");
    support::panicIf(deriv && deriv->size() != columns_.size(),
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
Trajectory::gatherSample(double t, const double *state, const double *deriv,
                         std::size_t stride)
{
    times_.push_back(t);
    for (std::size_t i : columns_)
        states_.push_back(state[i * stride]);
    if (derivsDropped_)
        return;
    for (std::size_t i : columns_)
        derivs_.push_back(deriv[i * stride]);
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
    return {states_.data() + sample * stateDim(), stateDim()};
}

std::span<const double>
Trajectory::deriv(std::size_t sample) const
{
    support::panicIf(sample >= times_.size(),
                     "Trajectory::deriv: sample out of range");
    support::panicIf(!hasDerivs(),
                     "Trajectory::deriv: no derivatives recorded");
    return {derivs_.data() + sample * stateDim(), stateDim()};
}

std::size_t
Trajectory::column(int stateIndex) const
{
    auto idx = static_cast<std::size_t>(stateIndex);
    auto it = std::lower_bound(columns_.begin(), columns_.end(), idx);
    if (stateIndex < 0 || it == columns_.end() || *it != idx) {
        throw SimError(cat("Trajectory: state ", stateIndex,
                           " was not saved"));
    }
    return static_cast<std::size_t>(it - columns_.begin());
}

std::vector<double>
Trajectory::series(int stateIndex) const
{
    if (times_.empty())
        return {};
    const std::size_t idx = column(stateIndex);
    std::vector<double> out;
    out.reserve(times_.size());
    for (std::size_t s = 0; s < times_.size(); ++s)
        out.push_back(states_[s * stateDim() + idx]);
    return out;
}

double
Trajectory::sampleAt(int stateIndex, double t) const
{
    if (times_.empty())
        throw SimError("sampleAt on an empty trajectory");
    const std::size_t idx = column(stateIndex);
    auto it = std::lower_bound(times_.begin(), times_.end(), t);
    return valueAt(idx, t, static_cast<std::size_t>(it - times_.begin()));
}

double
Trajectory::valueAt(std::size_t idx, double t, std::size_t hi) const
{
    const std::size_t dim = stateDim();
    if (t <= times_.front())
        return states_[idx];
    if (t >= times_.back())
        return states_[(times_.size() - 1) * dim + idx];
    std::size_t lo = hi - 1;
    double span = times_[hi] - times_[lo];
    if (span <= 0)
        return states_[lo * dim + idx];
    double y0 = states_[lo * dim + idx];
    double y1 = states_[hi * dim + idx];
    if (hasDerivs()) {
        // Cubic Hermite using the recorded slopes.
        double s = (t - times_[lo]) / span;
        double s2 = s * s;
        double s3 = s2 * s;
        double m0 = derivs_[lo * dim + idx];
        double m1 = derivs_[hi * dim + idx];
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
    auto gridPoint = [&](std::size_t i) {
        return n > 1 ? t0 + (t1 - t0) * static_cast<double>(i) /
                               static_cast<double>(n - 1)
                     : t0;
    };
    if (n == 0 || !(t0 <= t1)) {
        // A descending grid searches per point.
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(sampleAt(stateIndex, gridPoint(i)));
        return out;
    }
    if (times_.empty())
        throw SimError("sampleAt on an empty trajectory");
    // An ascending grid advances one cursor. Inside the recorded range
    // hi is then the sample std::lower_bound finds in sampleAt, so
    // every point gets the same bracket and arithmetic, bit for bit.
    const std::size_t idx = column(stateIndex);
    std::size_t hi = 1;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = gridPoint(i);
        while (hi + 1 < times_.size() && times_[hi] < t)
            ++hi;
        out.push_back(valueAt(idx, t, hi));
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
    const std::vector<std::size_t> saved =
        detail::savedStates(system, options.save);
    // One interpreted one-lane block: the same driver every ensemble
    // job runs, without the ensemble's pool, span or ledger.
    std::vector<SimResult> results = detail::integrateBlock(
        {&system}, {&initial}, {&saved}, t0, t1, options, /*jitOn=*/false);
    return std::move(results.front());
}

const char *
abortReasonName(AbortReason reason)
{
    switch (reason) {
    case AbortReason::Diverged:
        return "diverged";
    case AbortReason::BudgetExhausted:
        return "budget_exhausted";
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
    if (!options.save.empty()) {
        throw SimError("simulateToSteadyState: SimOptions::save must be "
                       "empty; the steady-state test reads every slope");
    }
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
