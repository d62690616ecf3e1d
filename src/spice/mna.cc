#include "spice/mna.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/error.h"
#include "support/logging.h"
#include "support/telemetry.h"

namespace ark::spice {

using support::cat;
using support::SemaError;
using support::SimError;

namespace detail {

MnaStamps
assembleStamps(const Netlist &netlist)
{
    MnaStamps stamps;
    stamps.numNodes = static_cast<std::size_t>(netlist.numNodes());

    // First pass: count dynamic branches (inductors, voltage sources).
    std::size_t branches = 0;
    for (const Element &elem : netlist.elements()) {
        if (elem.kind == ElemKind::Inductor ||
            elem.kind == ElemKind::VoltageSource) {
            ++branches;
        }
    }
    stamps.size = stamps.numNodes + branches;

    // Stamp helpers; ground contributions are dropped. Triplets are
    // kept even for zero values (e.g. a gm of 0) so the assembled
    // pattern depends only on the circuit structure.
    auto stampK = [&](int row, int col, double value) {
        if (row != kGround && col != kGround) {
            stamps.k.push_back(
                support::Triplet{static_cast<std::size_t>(row),
                                 static_cast<std::size_t>(col), value});
        }
    };
    auto stampM = [&](int row, int col, double value) {
        if (row != kGround && col != kGround) {
            stamps.m.push_back(
                support::Triplet{static_cast<std::size_t>(row),
                                 static_cast<std::size_t>(col), value});
        }
    };

    std::size_t nextBranch = stamps.numNodes;
    for (const Element &elem : netlist.elements()) {
        switch (elem.kind) {
          case ElemKind::Resistor: {
            double g = 1.0 / elem.value;
            stampK(elem.pos, elem.pos, g);
            stampK(elem.neg, elem.neg, g);
            stampK(elem.pos, elem.neg, -g);
            stampK(elem.neg, elem.pos, -g);
            break;
          }
          case ElemKind::Capacitor: {
            double c = elem.value;
            stampM(elem.pos, elem.pos, c);
            stampM(elem.neg, elem.neg, c);
            stampM(elem.pos, elem.neg, -c);
            stampM(elem.neg, elem.pos, -c);
            break;
          }
          case ElemKind::Inductor: {
            auto br = static_cast<int>(nextBranch++);
            // Branch equation: L di/dt - v(pos) + v(neg) = 0.
            stampM(br, br, elem.value);
            stampK(br, elem.pos, -1.0);
            stampK(br, elem.neg, 1.0);
            // KCL: current i leaves pos, enters neg.
            stampK(elem.pos, br, 1.0);
            stampK(elem.neg, br, -1.0);
            break;
          }
          case ElemKind::Vccs: {
            // i(pos -> neg) = gm * (v(ctrlPos) - v(ctrlNeg)):
            // leaves pos, enters neg.
            stampK(elem.pos, elem.ctrlPos, elem.value);
            stampK(elem.pos, elem.ctrlNeg, -elem.value);
            stampK(elem.neg, elem.ctrlPos, -elem.value);
            stampK(elem.neg, elem.ctrlNeg, elem.value);
            break;
          }
          case ElemKind::CurrentSource: {
            // Current flows pos -> neg through the source: KCL sees
            // -i at pos (leaving) as a source term on the RHS.
            if (elem.pos != kGround) {
                stamps.sources.push_back(
                    SourceEntry{static_cast<std::size_t>(elem.pos), -1.0,
                                elem.value, elem.waveform});
            }
            if (elem.neg != kGround) {
                stamps.sources.push_back(
                    SourceEntry{static_cast<std::size_t>(elem.neg), 1.0,
                                elem.value, elem.waveform});
            }
            break;
          }
          case ElemKind::VoltageSource: {
            auto br = static_cast<int>(nextBranch++);
            // Constraint row: v(pos) - v(neg) = E(t).
            stampK(br, elem.pos, 1.0);
            stampK(br, elem.neg, -1.0);
            stamps.sources.push_back(
                SourceEntry{static_cast<std::size_t>(br), 1.0,
                            elem.value, elem.waveform});
            // KCL: branch current leaves pos, enters neg.
            stampK(elem.pos, br, 1.0);
            stampK(elem.neg, br, -1.0);
            break;
          }
        }
    }
    return stamps;
}

} // namespace detail

namespace {

/** Evaluates the stamped sources into u (which must be zeroed). */
void
accumulateSources(const std::vector<detail::SourceEntry> &sources,
                  double t, double *u)
{
    for (const detail::SourceEntry &src : sources) {
        double value = src.waveform ? src.waveform(t) : src.dc;
        u[src.row] += src.sign * value;
    }
}

/** Dynamic-row mask from the structural M stamps (C/L values are
 *  validated positive, so structural presence == nonzero row). */
std::vector<bool>
dynamicRowsOf(const detail::MnaStamps &stamps)
{
    std::vector<bool> dynamic(stamps.size, false);
    for (const support::Triplet &t : stamps.m)
        dynamic[t.row] = true;
    return dynamic;
}

/** @throws SimError for out-of-contract transient arguments. */
void
checkTransientArgs(std::size_t n, double t0, double t1, double dt,
                   const std::vector<double> &x0)
{
    if (dt <= 0.0)
        throw SimError(cat("transient: dt must be positive, got ", dt));
    if (t1 < t0) {
        throw SimError(cat("transient: t1 (", t1,
                           ") precedes t0 (", t0, ")"));
    }
    if (!x0.empty() && x0.size() != n) {
        throw SimError(cat("transient: initial state has ", x0.size(),
                           " entries, system has ", n));
    }
}

/** Index of the first nonfinite entry, or -1 when all are finite. */
int
firstNonfinite(const std::vector<double> &x)
{
    for (std::size_t i = 0; i < x.size(); ++i)
        if (!std::isfinite(x[i]))
            return static_cast<int>(i);
    return -1;
}

TransientFailure
nonfiniteFailure(int unknown, double t, std::size_t step)
{
    return TransientFailure{
        TransientAbort::NonfiniteState, step, t,
        cat("unknown ", unknown, " went nonfinite at t=", t,
            " (step ", step, ")")};
}

double
stepEndEpsilon(double t1)
{
    return 1e-15 * std::max(1.0, std::fabs(t1));
}

/** Sample-count estimate for reserve(), clamped so a tiny dt cannot
 *  demand a huge up-front allocation (cf. the lane engine's clamp). */
std::size_t
sampleEstimate(double t0, double t1, double dt)
{
    constexpr double kMaxReserve = double{1 << 20};
    double steps = (t1 - t0) / dt;
    if (!(steps < kMaxReserve))
        return std::size_t{1} << 20;
    return static_cast<std::size_t>(steps) + 2;
}

/** The columns of a result that stores every one of n unknowns. */
std::vector<std::size_t>
everyUnknown(std::size_t n)
{
    std::vector<std::size_t> columns(n);
    std::iota(columns.begin(), columns.end(), std::size_t{0});
    return columns;
}

TransientFailure
singularStepFailure(const support::ArkError &error, double t,
                    std::size_t step)
{
    return TransientFailure{TransientAbort::SingularMatrix, step, t,
                            error.message()};
}

/** Consistent-init matrix: identity on dynamic rows, K elsewhere. */
support::SparseMatrix
initMatrixOf(const SparseMnaSystem &system)
{
    const std::size_t n = system.size();
    const support::SparseMatrix &k = system.stiffnessMatrix();
    std::vector<support::Triplet> triplets;
    for (std::size_t r = 0; r < n; ++r) {
        if (system.rowIsDynamic(r)) {
            triplets.push_back(support::Triplet{r, r, 1.0});
        } else {
            for (std::size_t i = k.rowPtr()[r]; i < k.rowPtr()[r + 1];
                 ++i) {
                triplets.push_back(support::Triplet{
                    r, k.colIndex()[i], k.values()[i]});
            }
        }
    }
    return support::SparseMatrix::fromTriplets(n, n, triplets);
}

} // namespace

MnaSystem::MnaSystem(const Netlist &netlist)
{
    detail::MnaStamps stamps = detail::assembleStamps(netlist);
    numNodes_ = stamps.numNodes;
    size_ = stamps.size;
    m_ = support::Matrix(size_, size_);
    k_ = support::Matrix(size_, size_);
    for (const support::Triplet &t : stamps.m)
        m_(t.row, t.col) += t.value;
    for (const support::Triplet &t : stamps.k)
        k_(t.row, t.col) += t.value;
    dynamicRow_ = dynamicRowsOf(stamps);
    sources_ = std::move(stamps.sources);
}

std::vector<double>
MnaSystem::sourceVector(double t) const
{
    std::vector<double> u(size_, 0.0);
    accumulateSources(sources_, t, u.data());
    return u;
}

SparseMnaSystem::SparseMnaSystem(const Netlist &netlist)
{
    detail::MnaStamps stamps = detail::assembleStamps(netlist);
    numNodes_ = stamps.numNodes;
    size_ = stamps.size;
    m_ = support::SparseMatrix::fromTriplets(size_, size_, stamps.m);
    k_ = support::SparseMatrix::fromTriplets(size_, size_, stamps.k);
    dynamicRow_ = dynamicRowsOf(stamps);
    for (std::size_t r = 0; r < size_; ++r)
        anyAlgebraic_ |= !dynamicRow_[r];
    sources_ = std::move(stamps.sources);
}

std::vector<double>
SparseMnaSystem::sourceVector(double t) const
{
    std::vector<double> u(size_, 0.0);
    accumulateSources(sources_, t, u.data());
    return u;
}

void
SparseMnaSystem::sourceVectorInto(double t, double *u) const
{
    std::fill(u, u + size_, 0.0);
    accumulateSources(sources_, t, u);
}

support::SparseMatrix
SparseMnaSystem::companionA(double h) const
{
    std::vector<support::Triplet> triplets;
    triplets.reserve(m_.nonZeros() + k_.nonZeros());
    for (std::size_t r = 0; r < size_; ++r) {
        if (dynamicRow_[r]) {
            for (std::size_t i = m_.rowPtr()[r]; i < m_.rowPtr()[r + 1];
                 ++i) {
                triplets.push_back(support::Triplet{
                    r, m_.colIndex()[i], 2.0 * m_.values()[i] / h});
            }
        }
        for (std::size_t i = k_.rowPtr()[r]; i < k_.rowPtr()[r + 1];
             ++i) {
            triplets.push_back(support::Triplet{
                r, k_.colIndex()[i], k_.values()[i]});
        }
    }
    return support::SparseMatrix::fromTriplets(size_, size_, triplets);
}

support::SparseMatrix
SparseMnaSystem::companionB(double h) const
{
    std::vector<support::Triplet> triplets;
    triplets.reserve(m_.nonZeros() + k_.nonZeros());
    for (std::size_t r = 0; r < size_; ++r) {
        if (!dynamicRow_[r])
            continue; // algebraic rows contribute nothing to the RHS
        for (std::size_t i = m_.rowPtr()[r]; i < m_.rowPtr()[r + 1];
             ++i) {
            triplets.push_back(support::Triplet{
                r, m_.colIndex()[i], 2.0 * m_.values()[i] / h});
        }
        for (std::size_t i = k_.rowPtr()[r]; i < k_.rowPtr()[r + 1];
             ++i) {
            triplets.push_back(support::Triplet{
                r, k_.colIndex()[i], -k_.values()[i]});
        }
    }
    return support::SparseMatrix::fromTriplets(size_, size_, triplets);
}

bool
SparseMnaSystem::sharesStructure(const SparseMnaSystem &other) const
{
    if (size_ != other.size_ || numNodes_ != other.numNodes_ ||
        dynamicRow_ != other.dynamicRow_ ||
        sources_.size() != other.sources_.size() ||
        !m_.samePattern(other.m_) || !k_.samePattern(other.k_)) {
        return false;
    }
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        if (sources_[i].row != other.sources_[i].row ||
            sources_[i].sign != other.sources_[i].sign) {
            return false;
        }
    }
    return true;
}

bool
SparseMnaSystem::sharesMatrixValues(const SparseMnaSystem &other) const
{
    return sharesStructure(other) && m_.sameValues(other.m_) &&
           k_.sameValues(other.k_);
}

TransientResult::TransientResult(std::vector<std::size_t> columns)
    : columns_(std::move(columns))
{
}

void
TransientResult::reserve(std::size_t samples)
{
    times_.reserve(samples);
    states_.reserve(samples * dim());
}

void
TransientResult::addSample(double t, const double *state)
{
    times_.push_back(t);
    for (std::size_t unknown : columns_)
        states_.push_back(state[unknown]);
}

std::span<const double>
TransientResult::state(std::size_t sample) const
{
    support::panicIf(sample >= times_.size(),
                     "TransientResult::state out of range");
    return {states_.data() + sample * dim(), dim()};
}

std::vector<double>
TransientResult::series(std::size_t unknown) const
{
    if (times_.empty())
        return {};
    auto it = std::lower_bound(columns_.begin(), columns_.end(), unknown);
    if (it == columns_.end() || *it != unknown) {
        throw SimError(cat("TransientResult: unknown ", unknown,
                           " was not saved"));
    }
    const auto column = static_cast<std::size_t>(it - columns_.begin());
    std::vector<double> out;
    out.reserve(times_.size());
    for (std::size_t s = 0; s < times_.size(); ++s)
        out.push_back(states_[s * dim() + column]);
    return out;
}

const char *
transientAbortName(TransientAbort reason)
{
    switch (reason) {
    case TransientAbort::BadInput:
        return "bad_input";
    case TransientAbort::SingularMatrix:
        return "singular_matrix";
    case TransientAbort::NonfiniteState:
        return "nonfinite_state";
    }
    return "unknown";
}

TransientResult
transient(const MnaSystem &system, double t0, double t1, double dt,
          const std::vector<double> &x0)
{
    const std::size_t n = system.size();
    checkTransientArgs(n, t0, t1, dt, x0);
    std::vector<double> x = x0.empty() ? std::vector<double>(n, 0.0) : x0;

    const support::Matrix &m = system.massMatrix();
    const support::Matrix &k = system.stiffnessMatrix();

    // Consistent initialization: dynamic unknowns keep their given
    // initial values, but algebraic rows (voltage-source constraints,
    // resistive nodes) must hold at t0 as well — otherwise the first
    // trapezoidal step sees sources half-off.
    {
        bool anyAlgebraic = false;
        for (std::size_t r = 0; r < n; ++r)
            anyAlgebraic |= !system.rowIsDynamic(r);
        if (anyAlgebraic) {
            support::Matrix init(n, n);
            std::vector<double> rhs0(n, 0.0);
            std::vector<double> uInit = system.sourceVector(t0);
            for (std::size_t r = 0; r < n; ++r) {
                if (system.rowIsDynamic(r)) {
                    init(r, r) = 1.0;
                    rhs0[r] = x[r];
                } else {
                    for (std::size_t c = 0; c < n; ++c)
                        init(r, c) = k(r, c);
                    rhs0[r] = uInit[r];
                }
            }
            support::LuSolver initSolver(std::move(init));
            x = initSolver.solve(rhs0);
        }
    }

    TransientResult result(everyUnknown(n));
    result.reserve(sampleEstimate(t0, t1, dt));
    if (int bad = firstNonfinite(x); bad >= 0) {
        result.failure = nonfiniteFailure(bad, t0, 0);
        return result;
    }
    result.addSample(t0, x.data());
    if (t1 == t0)
        return result;

    // Companion matrices: A x1 = B x0 + (u0 + u1) on dynamic rows;
    // algebraic rows enforce K x1 = u1 exactly.
    support::Matrix a(n, n);
    support::Matrix b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        if (system.rowIsDynamic(r)) {
            for (std::size_t c = 0; c < n; ++c) {
                a(r, c) = 2.0 * m(r, c) / dt + k(r, c);
                b(r, c) = 2.0 * m(r, c) / dt - k(r, c);
            }
        } else {
            for (std::size_t c = 0; c < n; ++c) {
                a(r, c) = k(r, c);
                b(r, c) = 0.0;
            }
        }
    }
    support::LuSolver solver(std::move(a));

    double t = t0;
    std::size_t step = 0;
    std::vector<double> u0 = system.sourceVector(t0);
    while (t < t1 - stepEndEpsilon(t1)) {
        double h = std::min(dt, t1 - t);
        // Fixed step assumed; a final short step reuses the factored
        // matrix only when h == dt, otherwise refactor.
        std::vector<double> u1 = system.sourceVector(t + h);
        if (h == dt) {
            std::vector<double> rhs = b.apply(x);
            for (std::size_t r = 0; r < n; ++r) {
                if (system.rowIsDynamic(r))
                    rhs[r] += u0[r] + u1[r];
                else
                    rhs[r] = u1[r];
            }
            x = solver.solve(rhs);
        } else {
            support::Matrix aShort(n, n);
            for (std::size_t r = 0; r < n; ++r) {
                for (std::size_t c = 0; c < n; ++c) {
                    if (system.rowIsDynamic(r)) {
                        aShort(r, c) = 2.0 * m(r, c) / h + k(r, c);
                    } else {
                        aShort(r, c) = k(r, c);
                    }
                }
            }
            // Rebuild the RHS with the short-step mass scaling.
            std::vector<double> rhsShort(n, 0.0);
            for (std::size_t r = 0; r < n; ++r) {
                if (system.rowIsDynamic(r)) {
                    double acc = 0.0;
                    for (std::size_t c = 0; c < n; ++c) {
                        acc += (2.0 * m(r, c) / h - k(r, c)) * x[c];
                    }
                    rhsShort[r] = acc + u0[r] + u1[r];
                } else {
                    rhsShort[r] = u1[r];
                }
            }
            // A singular short-step companion is a mid-run event: it
            // must not discard the trajectory recorded so far.
            try {
                support::LuSolver shortSolver(std::move(aShort));
                x = shortSolver.solve(rhsShort);
            } catch (const support::ArkError &error) {
                result.failure = singularStepFailure(error, t, step);
                return result;
            }
        }
        t += h;
        ++step;
        u0 = std::move(u1);
        if (int bad = firstNonfinite(x); bad >= 0) {
            result.failure = nonfiniteFailure(bad, t, step);
            return result;
        }
        result.addSample(t, x.data());
    }
    return result;
}

namespace {

/** Counted, timed full factorization of a companion matrix. */
support::SparseLu
timedFactor(const support::SparseMatrix &a)
{
    static telemetry::Counter &factors =
        telemetry::Registry::shared().counter("ark.spice.factors");
    static telemetry::Histogram &factorNs =
        telemetry::Registry::shared().histogram("ark.spice.factor_ns");
    telemetry::ScopedSpan span("ark.spice.factor");
    telemetry::ScopedTimer timer(factorNs);
    factors.add();
    return support::SparseLu(a);
}

} // namespace

TransientStepper::TransientStepper(const SparseMnaSystem &system,
                                   double dt)
    : dt_((checkTransientArgs(system.size(), 0.0, 0.0, dt, {}), dt)),
      a_(system.companionA(dt)), b_(system.companionB(dt)),
      lu_(timedFactor(a_))
{
    if (system.anyAlgebraicRow()) {
        initA_ = initMatrixOf(system);
        initLu_.emplace(initA_);
    }
}

double
finalStepSize(double t0, double t1, double dt)
{
    // Mirror the stepping loop exactly: t accumulates by repeated
    // addition, so the final remainder carries the same rounding the
    // integrator will compute.
    double t = t0;
    double h = dt;
    while (t < t1 - stepEndEpsilon(t1)) {
        h = std::min(dt, t1 - t);
        t += h;
    }
    return h;
}

void
TransientStepper::prepareFinalStep(const SparseMnaSystem &system,
                                   double h)
{
    finalLu_.reset();
    finalA_ = support::SparseMatrix();
    finalB_ = support::SparseMatrix();
    finalH_ = 0.0;
    if (!(h > 0.0) || h == dt_)
        return; // no fractional final step on this grid
    // A singular final companion is a per-run event on the one-off
    // path; keep that contract by simply not preparing the operator.
    try {
        support::SparseMatrix a = system.companionA(h);
        support::SparseMatrix b = system.companionB(h);
        finalLu_.emplace(a);
        finalA_ = std::move(a);
        finalB_ = std::move(b);
        finalH_ = h;
    } catch (const support::ArkError &) {
        finalLu_.reset();
        finalA_ = support::SparseMatrix();
        finalB_ = support::SparseMatrix();
        finalH_ = 0.0;
    }
}

void
TransientStepper::rebind(const SparseMnaSystem &system)
{
    // Refactor-or-fresh: reuse the recorded pivot order when it
    // survives the new values, fall back to a fresh factorization
    // with its own pivoting otherwise (which rethrows if the matrix
    // is genuinely singular).
    auto rebindFactor = [](support::SparseLu &lu,
                           const support::SparseMatrix &matrix) {
        try {
            static telemetry::Counter &refactors =
                telemetry::Registry::shared().counter(
                    "ark.spice.refactors");
            static telemetry::Histogram &refactorNs =
                telemetry::Registry::shared().histogram(
                    "ark.spice.refactor_ns");
            telemetry::ScopedSpan span("ark.spice.refactor");
            telemetry::ScopedTimer timer(refactorNs);
            refactors.add();
            lu.refactor(matrix);
        } catch (const support::ArkError &) {
            lu = timedFactor(matrix);
        }
    };

    // On any factorization failure the partially overwritten factors
    // are unusable; empty the cached matrices before rethrowing so a
    // later rebind with the old values cannot take the
    // matching-values fast path over corrupted factors.
    auto poison = [&] {
        a_ = support::SparseMatrix();
        b_ = support::SparseMatrix();
        initA_ = support::SparseMatrix();
        finalA_ = support::SparseMatrix();
        finalB_ = support::SparseMatrix();
        finalLu_.reset();
        finalH_ = 0.0;
    };

    support::SparseMatrix a = system.companionA(dt_);
    support::SparseMatrix b = system.companionB(dt_);
    if (!(a.sameValues(a_) && b.sameValues(b_))) {
        try {
            rebindFactor(lu_, a);
        } catch (...) {
            poison();
            throw;
        }
        a_ = std::move(a);
        b_ = std::move(b);
    }
    if (initLu_.has_value()) {
        support::SparseMatrix init = initMatrixOf(system);
        if (!init.sameValues(initA_)) {
            try {
                rebindFactor(*initLu_, init);
            } catch (...) {
                poison();
                throw;
            }
            initA_ = std::move(init);
        }
    }
    if (finalLu_.has_value()) {
        // The prepared fractional-final-step operator follows the
        // main factors: numeric refactorization on the new values. A
        // singular final companion is a per-run event on the one-off
        // path, so here it just drops the prepared operator instead
        // of poisoning the stepper.
        support::SparseMatrix a = system.companionA(finalH_);
        support::SparseMatrix b = system.companionB(finalH_);
        if (!(a.sameValues(finalA_) && b.sameValues(finalB_))) {
            try {
                rebindFactor(*finalLu_, a);
                finalA_ = std::move(a);
                finalB_ = std::move(b);
            } catch (const support::ArkError &) {
                finalA_ = support::SparseMatrix();
                finalB_ = support::SparseMatrix();
                finalLu_.reset();
                finalH_ = 0.0;
            }
        }
    }
}

TransientResult
TransientStepper::run(const SparseMnaSystem &system, double t0, double t1,
                      const std::vector<double> &x0,
                      const std::vector<std::size_t> &save) const
{
    const std::size_t n = system.size();
    checkTransientArgs(n, t0, t1, dt_, x0);
    for (std::size_t c = 0; c < save.size(); ++c) {
        if (save[c] >= n || (c > 0 && save[c] <= save[c - 1])) {
            throw SimError(cat("transient: save must list ascending "
                               "unknowns below ",
                               n));
        }
    }
    std::vector<double> x = x0.empty() ? std::vector<double>(n, 0.0) : x0;

    // Consistent initialization of algebraic rows, as in the dense
    // path, through the pre-factored init operator.
    if (system.anyAlgebraicRow()) {
        support::panicIf(!initLu_.has_value(),
                         "TransientStepper: system has algebraic rows "
                         "but no init factorization is bound");
        std::vector<double> rhs0(n, 0.0);
        std::vector<double> uInit = system.sourceVector(t0);
        for (std::size_t r = 0; r < n; ++r)
            rhs0[r] = system.rowIsDynamic(r) ? x[r] : uInit[r];
        x = initLu_->solve(rhs0);
    }

    TransientResult result(save.empty() ? everyUnknown(n) : save);
    result.reserve(sampleEstimate(t0, t1, dt_));
    if (int bad = firstNonfinite(x); bad >= 0) {
        result.failure = nonfiniteFailure(bad, t0, 0);
        return result;
    }
    result.addSample(t0, x.data());
    if (t1 == t0)
        return result;

    std::vector<double> u0(n), u1(n), rhs(n), xNext(n);
    system.sourceVectorInto(t0, u0.data());
    double t = t0;
    std::size_t step = 0;
    while (t < t1 - stepEndEpsilon(t1)) {
        double h = std::min(dt_, t1 - t);
        system.sourceVectorInto(t + h, u1.data());
        if (h == dt_) {
            b_.applyInto(x.data(), rhs.data());
            for (std::size_t r = 0; r < n; ++r) {
                if (system.rowIsDynamic(r))
                    rhs[r] += u0[r] + u1[r];
                else
                    rhs[r] = u1[r];
            }
            lu_.solveInto(rhs.data(), xNext.data());
        } else if (finalLu_.has_value() && h == finalH_) {
            // Fractional final step through the prepared shared
            // operator (prepareFinalStep): back-substitution only, no
            // per-instance factorization.
            finalB_.applyInto(x.data(), rhs.data());
            for (std::size_t r = 0; r < n; ++r) {
                if (system.rowIsDynamic(r))
                    rhs[r] += u0[r] + u1[r];
                else
                    rhs[r] = u1[r];
            }
            finalLu_->solveInto(rhs.data(), xNext.data());
        } else {
            // Short final step: one-off companion operator at h. A
            // singular factorization here is a mid-run event — report
            // it structurally and keep the recorded trajectory.
            try {
                support::SparseMatrix bShort = system.companionB(h);
                support::SparseLu shortLu(system.companionA(h));
                bShort.applyInto(x.data(), rhs.data());
                for (std::size_t r = 0; r < n; ++r) {
                    if (system.rowIsDynamic(r))
                        rhs[r] += u0[r] + u1[r];
                    else
                        rhs[r] = u1[r];
                }
                shortLu.solveInto(rhs.data(), xNext.data());
            } catch (const support::ArkError &error) {
                result.failure = singularStepFailure(error, t, step);
                return result;
            }
        }
        x.swap(xNext);
        t += h;
        ++step;
        u0.swap(u1);
        if (int bad = firstNonfinite(x); bad >= 0) {
            result.failure = nonfiniteFailure(bad, t, step);
            return result;
        }
        result.addSample(t, x.data());
    }
    return result;
}

TransientResult
transient(const SparseMnaSystem &system, double t0, double t1, double dt,
          const std::vector<double> &x0)
{
    checkTransientArgs(system.size(), t0, t1, dt, x0);
    TransientStepper stepper(system, dt);
    return stepper.run(system, t0, t1, x0);
}

} // namespace ark::spice
