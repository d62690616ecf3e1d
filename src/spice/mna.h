#ifndef ARK_SPICE_MNA_H
#define ARK_SPICE_MNA_H

/**
 * @file
 * Modified nodal analysis and trapezoidal transient simulation.
 *
 * Unknowns are the node voltages plus one branch current per inductor
 * and per voltage source. The assembled system is
 * M dx/dt + K x = u(t); transient analysis integrates it with the
 * trapezoidal rule (what SPICE uses for such circuits), factoring
 * (2M/h + K) once per run. Rows with no dynamic term (voltage-source
 * constraints) are enforced exactly at each step.
 *
 * Two assembly paths share one stamping pass:
 *
 *  - MnaSystem: dense M/K (support::Matrix + LuSolver). Right for
 *    one-off circuits of a few dozen unknowns; every transient pays a
 *    fresh O(n^3) factorization and O(n^2) per step.
 *  - SparseMnaSystem: CSR M/K (support::SparseMatrix + SparseLu).
 *    Cost scales with the stamp count, and — the batch engine's whole
 *    point — the companion factorization's pivot order and fill
 *    pattern depend only on the sparsity structure, so a sweep of
 *    same-topology netlists analyzes symbolically once, refactors
 *    numerically per instance (or shares the factors outright when
 *    the matrix values match bit-for-bit), and back-substitutes per
 *    step. spice::TransientBatch (batch.h) automates that grouping;
 *    results match the dense path to rounding (property-tested at
 *    <= 1e-12).
 *
 * Configuration errors (nonpositive dt, reversed time range, wrong
 * initial-state size) throw a structured support::SimError; a state
 * that goes nonfinite mid-run stops early with a structured
 * TransientResult::failure instead, keeping the samples recorded
 * before the failure.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "spice/netlist.h"
#include "support/linalg.h"
#include "support/sparse.h"

namespace ark::spice {

namespace detail {

/** One u(t) contribution: (row, sign, waveform/value). */
struct SourceEntry
{
    std::size_t row;
    double sign;
    double dc;
    Waveform waveform;
};

/** Stamping pass output shared by the dense and sparse assemblers. */
struct MnaStamps
{
    std::size_t numNodes = 0;
    std::size_t size = 0;
    std::vector<support::Triplet> m;
    std::vector<support::Triplet> k;
    std::vector<SourceEntry> sources;
};

/** @throws SemaError for malformed circuits. */
MnaStamps assembleStamps(const Netlist &netlist);

} // namespace detail

/** Assembled MNA system (dense storage). */
class MnaSystem
{
  public:
    /** @throws SemaError for malformed circuits. */
    explicit MnaSystem(const Netlist &netlist);

    /** Total unknowns (nodes + dynamic branches). */
    std::size_t size() const { return size_; }

    std::size_t numNodeUnknowns() const { return numNodes_; }

    const support::Matrix &massMatrix() const { return m_; }
    const support::Matrix &stiffnessMatrix() const { return k_; }

    /** Source vector u(t). */
    std::vector<double> sourceVector(double t) const;

    /** True when row r has any dynamic (M) entry. */
    bool rowIsDynamic(std::size_t r) const { return dynamicRow_[r]; }

  private:
    std::size_t numNodes_;
    std::size_t size_;
    support::Matrix m_;
    support::Matrix k_;
    std::vector<bool> dynamicRow_;
    std::vector<detail::SourceEntry> sources_;
};

/**
 * Assembled MNA system (CSR storage). Same stamps, same semantics as
 * MnaSystem; feeds the sparse transient path and the batch engine.
 */
class SparseMnaSystem
{
  public:
    /** @throws SemaError for malformed circuits. */
    explicit SparseMnaSystem(const Netlist &netlist);

    std::size_t size() const { return size_; }
    std::size_t numNodeUnknowns() const { return numNodes_; }

    const support::SparseMatrix &massMatrix() const { return m_; }
    const support::SparseMatrix &stiffnessMatrix() const { return k_; }

    std::vector<double> sourceVector(double t) const;
    /** Allocation-free u(t); `u` must hold size() entries. */
    void sourceVectorInto(double t, double *u) const;

    bool rowIsDynamic(std::size_t r) const { return dynamicRow_[r]; }
    bool anyAlgebraicRow() const { return anyAlgebraic_; }

    /**
     * Trapezoidal companion matrices for step h: on dynamic rows
     * A = 2M/h + K and B = 2M/h - K; algebraic rows carry K in A and
     * nothing in B (the constraint is enforced exactly each step).
     * The pattern depends only on the stamp positions, never the
     * values, so same-structure systems produce samePattern matrices.
     */
    support::SparseMatrix companionA(double h) const;
    support::SparseMatrix companionB(double h) const;

    /**
     * True when `other` assembles the same structure: same unknowns,
     * same M/K sparsity patterns, same dynamic-row mask, and same
     * source placement (rows/signs; waveforms are RHS-only and do not
     * affect factorization). Such systems share one symbolic
     * factorization in TransientBatch.
     */
    bool sharesStructure(const SparseMnaSystem &other) const;

    /** sharesStructure plus bit-identical M/K values: the companion
     *  factors themselves can be shared (no per-instance refactor). */
    bool sharesMatrixValues(const SparseMnaSystem &other) const;

    /** Assembled u(t) contributions (rows, signs, dc, waveform) —
     *  exposed for the engine layer's structural fingerprinting. */
    const std::vector<detail::SourceEntry> &sources() const
    {
        return sources_;
    }

  private:
    std::size_t numNodes_;
    std::size_t size_;
    support::SparseMatrix m_;
    support::SparseMatrix k_;
    std::vector<bool> dynamicRow_;
    bool anyAlgebraic_ = false;
    std::vector<detail::SourceEntry> sources_;
};

/**
 * Why a transient run stopped before t1.
 *
 * Failure taxonomy (mirroring sim::AbortReason on the ODE side):
 * every entry is an instance-level outcome reported as a structured
 * TransientResult::failure on exactly the affected instance, so one
 * bad sweep member can never abort its batch. Exceptions remain
 * reserved for caller errors on the single-instance entry points.
 */
enum class TransientAbort : std::uint8_t {
    BadInput,        ///< Rejected configuration (batch path only).
    SingularMatrix,  ///< Companion factorization failed (batch path only).
    NonfiniteState,  ///< An unknown went NaN/Inf mid-run.
};

/** Stable lower-case spelling for logs and ledger exports. */
const char *transientAbortName(TransientAbort reason);

/** Structured early-stop report for a transient run. */
struct TransientFailure
{
    TransientAbort reason = TransientAbort::NonfiniteState;
    std::size_t step = 0; ///< Completed steps when detected.
    double time = 0.0;    ///< Integration time reached.
    std::string message;  ///< Human-readable summary.
};

/**
 * Transient result: times plus the stored unknowns per sample in one
 * flat reserve-backed buffer (sample-major), mirroring
 * sim::Trajectory — recording a sample is a bulk append with no
 * per-sample allocation, and state(s) is a view into the buffer. A
 * run stores every unknown unless it was given a save list
 * (TransientStepper::run, TransientBatchOptions::save); columns()
 * lists which unknown each stored column holds, and series() takes
 * the unknown (a node's id for node voltages), throwing SimError for
 * one that was not stored. state(s) and dim() describe the stored
 * columns.
 */
class TransientResult
{
  public:
    /** A result with no columns: a sweep's failed-before-run slot. */
    TransientResult() = default;

    /** A result of the unknowns `columns` (ascending indices). */
    explicit TransientResult(std::vector<std::size_t> columns);

    /** Pre-sizes the buffers for `samples` samples. */
    void reserve(std::size_t samples);

    /** Appends one sample gathered from every unknown's value in
     *  `state`: the entries at columns(). */
    void addSample(double t, const double *state);

    std::size_t size() const { return times_.size(); }
    /** Stored columns per sample. */
    std::size_t dim() const { return columns_.size(); }
    /** The unknown each stored column holds, ascending. */
    const std::vector<std::size_t> &columns() const { return columns_; }

    const std::vector<double> &times() const { return times_; }
    double time(std::size_t sample) const { return times_.at(sample); }

    /** One recorded sample's stored columns (a view into the buffer). */
    std::span<const double> state(std::size_t sample) const;

    /** Series of one unknown over all samples (empty when nothing was
     *  recorded). */
    std::vector<double> series(std::size_t unknown) const;

    /**
     * Set when the run stopped early (nonfinite state; the batch
     * engine also reports bad inputs and singular matrices here
     * instead of throwing). Samples recorded before the failure are
     * kept.
     */
    std::optional<TransientFailure> failure;

    /** True when the run integrated all the way to t1. */
    bool ok() const { return !failure.has_value(); }

  private:
    std::vector<std::size_t> columns_; ///< Unknown per column.
    std::vector<double> times_;
    std::vector<double> states_; ///< Flat, size() * dim().
};

/**
 * Reusable sparse transient operator bound to one (structure, dt):
 * the companion matrices and their factorization. This is the unit
 * TransientBatch shares across a same-structure sweep — construct
 * once from the group leader, then per instance either run() directly
 * (bit-identical matrix values) or copy + rebind() (numeric-only
 * refactorization replaying the leader's pivot order) — and the unit
 * a StepperCache (spice/batch.h) keeps between sweeps.
 */
class TransientStepper
{
  public:
    /**
     * Builds and factors the companion matrices.
     * @throws support::SimError for dt <= 0; ArkError (Sim) when the
     *         companion matrix is singular.
     */
    TransientStepper(const SparseMnaSystem &system, double dt);

    double dt() const { return dt_; }

    /**
     * Pre-factors the companion operator for a fractional final step
     * of size `h` (a [t0, t1] range dt does not divide ends on one
     * short step; see finalStepSize). Prepared once on a group
     * leader, the factors are shared by every value-identical
     * instance and refactored numerically by rebind() for the rest —
     * without this, each instance one-off-factors the final step and
     * bypasses the batch engine's factor sharing. `h == dt()` (or
     * <= 0) clears the prepared operator instead; a singular final
     * companion also leaves it unset, so run() falls back to the
     * per-run one-off path (which reports the singularity as that
     * instance's structured mid-run failure). `system` must be the
     * one the main factors are bound to. Not thread-safe against
     * concurrent run() calls — prepare before sharing.
     */
    void prepareFinalStep(const SparseMnaSystem &system, double h);

    /** Step size the prepared final-step operator was built for, or
     *  0 when none is prepared. */
    double preparedFinalStep() const { return finalH_; }

    /**
     * Rebinds the factors to `system`'s matrix values (which must
     * share the bound structure): numeric refactorization only — the
     * prepared final-step operator, when present, is refactored
     * alongside the main companion. Falls back to a fresh pivot
     * search when the reused pivot order collapses on the new values.
     * @throws ArkError (Sim) when the instance matrix is singular; on
     *         throw the stepper holds no valid factors — discard it
     *         or rebind successfully before calling run().
     */
    void rebind(const SparseMnaSystem &system);

    /**
     * Integrates `system` (whose companion matrices must match the
     * currently bound values) from x0 (zeros when empty) over
     * [t0, t1], sampling every step. The result stores the unknowns
     * `save` (ascending), or every unknown when `save` is empty;
     * saving changes no step, value or failure check. Thread-safe:
     * run() is const and touches no shared mutable state, so one
     * stepper may serve concurrent value-identical instances.
     * @throws support::SimError for invalid t0/t1/x0/save.
     */
    TransientResult run(const SparseMnaSystem &system, double t0,
                        double t1, const std::vector<double> &x0 = {},
                        const std::vector<std::size_t> &save = {}) const;

  private:
    double dt_;
    support::SparseMatrix a_;
    support::SparseMatrix b_;
    support::SparseLu lu_;
    /** Consistent-initialization operator (identity on dynamic rows,
     *  K elsewhere); factored once here and rebound with the
     *  companion factors. Absent when every row is dynamic. */
    support::SparseMatrix initA_;
    std::optional<support::SparseLu> initLu_;
    /** Optional pre-factored fractional-final-step operator
     *  (prepareFinalStep); absent means run() one-off-factors any
     *  short final step it encounters. */
    double finalH_ = 0.0;
    support::SparseMatrix finalA_;
    support::SparseMatrix finalB_;
    std::optional<support::SparseLu> finalLu_;
};

/**
 * Trapezoidal transient analysis from x(0) = x0 (zeros when empty).
 * Samples every step.
 * @throws support::SimError for dt <= 0, t1 < t0, or wrong-sized x0;
 *         ArkError (Sim) when the companion matrix is singular at
 *         setup. Mid-run events — a nonfinite state, or a singular
 *         short-final-step companion — return early with a
 *         structured TransientResult::failure instead, keeping the
 *         samples recorded before the event.
 */
TransientResult transient(const MnaSystem &system, double t0, double t1,
                          double dt, const std::vector<double> &x0 = {});

/** Sparse-path transient; same contract and (to rounding) results. */
TransientResult transient(const SparseMnaSystem &system, double t0,
                          double t1, double dt,
                          const std::vector<double> &x0 = {});

/**
 * Size of the last step a trapezoidal transient over [t0, t1] with
 * nominal step dt takes — dt when the grid divides the range (or the
 * range is empty), the fractional remainder otherwise. Computed with
 * the integrator's own time-accumulation loop so the result is
 * bit-identical to the `h` the stepper sees on its final iteration
 * (a closed-form remainder would round differently). Used by
 * TransientBatch to pre-factor the final-step operator of every
 * stepper it factors afresh (group leaders and standalone
 * instances), and as part of its stepper-cache key.
 */
double finalStepSize(double t0, double t1, double dt);

} // namespace ark::spice

#endif // ARK_SPICE_MNA_H
