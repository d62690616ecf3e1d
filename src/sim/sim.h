#ifndef ARK_SIM_SIM_H
#define ARK_SIM_SIM_H

/**
 * @file
 * Transient simulation of compiled Ark dynamical systems.
 *
 * Two integrators cover the paper's workloads: a fixed-step classical
 * RK4 (predictable cost, used for SPICE cross-validation on matching
 * time grids) and an adaptive Dormand-Prince 5(4) with PI step
 * control (default; handles the nanosecond-scale TLN/OBC dynamics and
 * the CNN's piecewise-linear saturations efficiently).
 *
 * RHS evaluation has four execution tiers at identical semantics.
 * The first two are references; every integrator runs tier 3 or 4:
 *
 *  1. tree interpreter (OdeSystem::evalRhsInterpreted) — ground truth
 *     for equivalence tests;
 *  2. fused whole-system tape (expr::FusedTape) — the compiler: one
 *     program of the tape ISA (expr/tape.h) with cross-equation CSE
 *     fills all of dstate per pass. Its own evaluator (evalRhs /
 *     FusedTape::evalInto) is the oracle the bit-identity suites
 *     compare against; no integrator calls it;
 *  3. LaneTape interpreter (expr::LaneTape) — the fused programs of
 *     one to eight instances merged over a structure-of-arrays block,
 *     amortizing instruction dispatch over the lanes. Its lane loops
 *     load every operand lane before they store, so they compile to
 *     packed SIMD, and it dispatches a shorter stream in which each
 *     (a*b)/c, its sum with one addend, and each result's store to
 *     its output slot cost one instruction;
 *  4. JIT native kernels (expr/cjit.h, SimOptions::jit) — the lane
 *     program lowered to straight-line C, compiled at runtime, and
 *     called through one function pointer per evaluation. Results are
 *     bit-identical to tiers 2/3 (same IEEE ops in the same order);
 *     any compile problem silently falls back to the interpreted tier.
 *
 * Tiers 2-4 evaluate each pure instruction by the same row of one op
 * table (ARK_TAPE_OPS), which the oracle and the interpreter compile
 * and the JIT emits as C.
 *
 * Each method has ONE integrator (sim/batch.h), and every run is a
 * lane block of it, 1 to 8 lanes wide. simulate() is a one-lane
 * block. simulateEnsemble groups instances that share one program
 * structure — one system with many initial states, or distinct
 * systems that differ only in constants (per-chip mismatch) — into
 * blocks of up to 8; everything else runs as one-lane blocks.
 *
 *  - Rk4 blocks advance all lanes on the shared fixed-step grid;
 *    every lane's trajectory is bit-identical to serial simulate() of
 *    that instance.
 *  - Dopri5 blocks advance all lanes on ONE shared step size chosen
 *    by min-over-active-lanes of the PI controller ("step voting"),
 *    with per-lane error estimates and rejection masking. With one
 *    lane that is the plain adaptive recurrence; with several, the
 *    shared grid means the step sequence differs from each instance's
 *    own run, so batched adaptive results agree with serial
 *    simulate() at tolerance level (each accepted step satisfies
 *    every lane's error test), NOT bitwise. They ARE bit-identical
 *    across thread counts, and EnsembleOptions::laneBatching = false
 *    runs one one-lane block per instance, which is serial simulate()
 *    exactly.
 *
 * Every ensemble job runs on BatchRunner's persistent worker pool.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "compiler/odesystem.h"

namespace ark::telemetry {
class RunLedger;
}

namespace ark::sim {

/** Integration method selection. */
enum class Method { Rk4, Dopri5 };

/** Simulation controls. */
struct SimOptions
{
    Method method = Method::Dopri5;
    double dt = 0.0;        ///< Fixed step (Rk4) / initial step (Dopri5);
                            ///< 0 picks (t1-t0)/1000.
    double absTol = 1e-9;   ///< Dopri5 absolute tolerance.
    double relTol = 1e-6;   ///< Dopri5 relative tolerance.
    /**
     * Step ceiling; 0 = (t1-t0)/10. Adaptive steps grow without bound
     * through quiescent dynamics, and a step larger than a narrow
     * input pulse can clear it without any stage sampling inside it
     * (error control never sees the event). Set maxDt below the
     * narrowest input feature's width when driving with short pulses.
     */
    double maxDt = 0.0;
    double recordDt = 0.0;  ///< Sampling interval; 0 records every step.
    std::size_t maxSteps = 50'000'000; ///< Hard stop against stalls.

    /**
     * Nodes whose states a run stores, named after SPICE's `.save`
     * card. Each system resolves the names to the state indices of
     * those nodes, every derivative order, in ascending order; empty
     * (the default) stores every state. Saving changes which columns a
     * Trajectory holds, never a step or a value: the divergence and
     * budget checks still scan every state. A name that some system
     * lacks is a caller error, thrown as SimError before any instance
     * integrates. simulateToSteadyState rejects a non-empty list,
     * because its convergence test reads every slope.
     */
    std::vector<std::string> save;

    /**
     * Serve RHS evaluation from JIT-compiled native kernels
     * (expr/cjit.h): the ensemble engine lowers each lane block's
     * program, one-lane blocks included, to C,
     * compiles it once per structure through the engine's
     * ArtifactCache and an on-disk object cache, and evaluates
     * through the resolved function pointer. Results are
     * bit-identical to the interpreted tiers — the emitted code
     * replays the exact instruction stream with the same IEEE
     * semantics (-fno-fast-math, -ffp-contract=off, same libm) —
     * regression-tested in tests/jit_test.cc. Off by default: the
     * tier needs a working C compiler at runtime, and hosts without
     * one must never pay a probe on the default path. When enabled
     * without a usable toolchain (or when compilation fails, or
     * FaultSite::JitCompile is armed) execution silently falls back
     * to the interpreted tier. The ARK_JIT_FORCE environment variable
     * overrides this flag in both directions (the jit CI job
     * runs tier-1 with it set).
     */
    bool jit = false;
};

/**
 * Recorded trajectory: times plus the stored columns of the state per
 * sample. A trajectory stores either every state (a default-constructed
 * one; its first sample fixes the dimension) or the states a run's
 * SimOptions::save names. columns() lists which state each stored
 * column holds; series(), sampleAt() and resample() take the system's
 * state index and throw SimError for a state that was not stored.
 * state(s), deriv(s) and stateDim() describe the stored columns.
 *
 * Storage is flat: one contiguous buffer of size() * stateDim()
 * doubles (sample-major), so recording a sample is a bulk append with
 * no per-sample vector allocation, and state(s) is a view into the
 * buffer. reserve() pre-sizes the buffers; the simulation driver
 * reserves from the recording stride before integrating.
 *
 * Derivative invariant: cubic-Hermite slopes are kept only while
 * *every* recorded sample has provided one. The first sample recorded
 * without a derivative drops the slope buffer permanently — later
 * derivatives cannot resurrect it, because a partially-populated
 * slope buffer cannot be aligned to the samples. sampleAt then falls
 * back to linear interpolation for the whole trajectory.
 */
class Trajectory
{
  public:
    /** A trajectory of every state; the first sample fixes its size. */
    Trajectory() = default;

    /** A trajectory of the states `columns` (ascending indices). */
    explicit Trajectory(std::vector<std::size_t> columns);

    /**
     * Appends a sample of the stored columns; `deriv` (dstate/dt at
     * the sample, optional) enables cubic Hermite interpolation in
     * sampleAt. Each holds stateDim() entries; a default-constructed
     * trajectory takes its dimension from the first sample.
     */
    void addSample(double t, const std::vector<double> &state,
                   const std::vector<double> *deriv = nullptr);

    /**
     * Appends a sample gathered from a whole state and its slope,
     * with state index i at state[i * stride] and deriv[i * stride]:
     * the integrators record a lane of their SoA block this way, one
     * gather per stored column.
     */
    void gatherSample(double t, const double *state, const double *deriv,
                      std::size_t stride);

    /** Pre-sizes the buffers for `samples` samples of `stateDim`. */
    void reserve(std::size_t samples, std::size_t stateDim);

    std::size_t size() const { return times_.size(); }
    /** Stored columns per sample; 0 for a default-constructed
     *  trajectory until the first sample lands. */
    std::size_t stateDim() const { return columns_.size(); }
    /** The state index each stored column holds, ascending. */
    const std::vector<std::size_t> &columns() const { return columns_; }
    const std::vector<double> &times() const { return times_; }
    /** One recorded sample's stored columns (a view into the buffer). */
    std::span<const double> state(std::size_t sample) const;
    double time(std::size_t sample) const { return times_.at(sample); }

    /** True while every sample has carried a derivative. */
    bool hasDerivs() const { return !times_.empty() && !derivsDropped_; }

    /**
     * The dstate/dt recorded with one sample, stored columns only (a
     * view into the flat slope buffer). The simulation drivers record,
     * with every sample, the RHS they integrated evaluated at that
     * sample. Requires hasDerivs().
     */
    std::span<const double> deriv(std::size_t sample) const;

    /** Series of one state variable across all samples (empty when
     *  nothing was recorded). */
    std::vector<double> series(int stateIndex) const;

    /**
     * Value of one state variable at time t (clamped to the recorded
     * range): cubic Hermite between samples when derivatives were
     * recorded (O(h^4) — accurate across large adaptive steps),
     * linear otherwise. Reads only that state's column.
     */
    double sampleAt(int stateIndex, double t) const;

    /**
     * Resamples a variable onto a uniform grid of n points: sampleAt
     * at each, bit for bit. An ascending grid walks one cursor
     * through the samples instead of searching per point.
     */
    std::vector<double> resample(int stateIndex, double t0, double t1,
                                 std::size_t n) const;

  private:
    /** The stored column of a state. @throws SimError if not stored. */
    std::size_t column(int stateIndex) const;

    /** Column idx at t, clamped to the recorded range; hi is the first
     *  sample at or after t, read only when t lies inside the range. */
    double valueAt(std::size_t idx, double t, std::size_t hi) const;

    std::vector<std::size_t> columns_; ///< State index per column.
    std::vector<double> times_;
    std::vector<double> states_; ///< Flat, size() * stateDim().
    std::vector<double> derivs_; ///< Flat; empty once dropped.
    bool derivsDropped_ = false;
};

/**
 * Why an instance stopped before reaching t1.
 *
 * Failure taxonomy: every entry here is an *instance-level* outcome —
 * it is reported as a structured SimResult::failure on exactly the
 * affected instance, never as an exception that poisons co-batched
 * neighbors. Exceptions remain reserved for caller errors (bad time
 * range, wrong state dimension) and for step-size collapse, which
 * indicates a misconfigured tolerance/step floor rather than a
 * property of one instance's data.
 */
enum class AbortReason : std::uint8_t {
    Diverged,        ///< A state variable went NaN/Inf.
    BudgetExhausted, ///< SimOptions::maxSteps spent before reaching t1.
};

/** Stable lower-case spelling for logs and ledger exports. */
const char *abortReasonName(AbortReason reason);

/**
 * Structured early-stop report. Divergence is detected the moment a
 * nonfinite value appears (accepted state or Dopri5 error estimate)
 * and aborts the instance right there — it is never integrated onward
 * toward maxSteps — recording which step and which state variable
 * went bad. The trajectory keeps every sample recorded before the
 * failure. Budget exhaustion is reported the same way: the instance
 * stops at the step where the budget ran out and keeps everything
 * recorded so far.
 */
struct SimFailure
{
    AbortReason reason = AbortReason::Diverged;
    std::size_t step = 0;  ///< Executed steps when detected (0 = initial state).
    int stateIndex = -1;   ///< First nonfinite variable; -1 if not variable-specific.
    double time = 0.0;     ///< Integration time reached.
    std::string message;   ///< Human-readable summary.
};

/** Simulation outcome. */
struct SimResult
{
    Trajectory trajectory;
    std::size_t steps = 0;          ///< Accepted steps.
    std::size_t rejectedSteps = 0;  ///< Dopri5 error-control rejects.
    bool reachedSteadyState = false;
    /** Set when the run stopped early (divergence, exhausted budget). */
    std::optional<SimFailure> failure;

    /** True when the run integrated all the way to t1. */
    bool ok() const { return !failure.has_value(); }
};

/**
 * Integrates the system from t0 to t1 as a one-lane block of the
 * method's integrator, on the calling thread and always on the
 * interpreted tier (SimOptions::jit is an ensemble option). A
 * diverging state (NaN/Inf) stops the run early and reports a
 * structured SimResult::failure, and so does an exhausted step budget
 * (AbortReason::BudgetExhausted, with every sample recorded up to the
 * stop); configuration errors (bad time range, step collapse) still
 * throw.
 * @throws ark::support::SimError on step-size collapse.
 */
SimResult simulate(const compiler::OdeSystem &system, double t0, double t1,
                   const SimOptions &options = SimOptions{});

/**
 * Integrates from a caller-supplied initial state (ensemble restarts,
 * warm starts) instead of the system's compiled initial values.
 * @throws ark::support::SimError also when `initial` has the wrong
 *         dimension.
 */
SimResult simulate(const compiler::OdeSystem &system,
                   const std::vector<double> &initial, double t0,
                   double t1, const SimOptions &options = SimOptions{});

/** Controls for batched ensemble integration. */
struct EnsembleOptions
{
    SimOptions sim; ///< Per-instance integration controls.

    /**
     * Worker threads; 0 picks the hardware concurrency. The pool is
     * capped at the instance count; 1 degenerates to a serial loop on
     * the calling thread.
     */
    unsigned numThreads = 0;

    /**
     * Lane-batch structurally compatible instances through
     * expr::LaneTape — fixed-step Rk4 on the shared grid, adaptive
     * Dopri5 through the lane-synchronized step-voting driver. Off
     * runs one one-lane block per instance (ablation benchmarks and
     * differential tests), which is exactly serial simulate(). Rk4
     * results are bit-identical either way; Dopri5 results are
     * tolerance-level equivalent (the voting driver integrates on a
     * shared step sequence) and become bit-identical to serial
     * simulate() only with laneBatching off.
     */
    bool laneBatching = true;

    /**
     * Optional flight recorder: when set, the batch appends one
     * telemetry::RunLedger::Record per instance at the end of the run
     * (tier, lane width, block id, step counts, structured failure).
     * Observation-only — results are bit-identical with and without a
     * ledger — and the pointer must outlive the call. Null = off.
     */
    telemetry::RunLedger *ledger = nullptr;
};

/**
 * Integrates N instances of one system concurrently, instance i
 * starting from initialStates[i]. Results are positionally ordered
 * and deterministic for every thread count. Rk4 batches (and any
 * batch with laneBatching off) are bit-identical to calling
 * simulate(system, initialStates[i], t0, t1, options.sim) serially;
 * lane-batched Dopri5 batches integrate on a shared voted step
 * sequence and agree with the serial runs at tolerance level instead
 * (see the file header). The voting sequence depends only on the
 * block assignment, so batched adaptive results are still
 * bit-identical across thread counts.
 *
 * Divergence and budget exhaustion never throw — the affected
 * instance's result carries a structured failure, and healthy
 * lane-mates in the same block keep integrating (an exhausted or
 * diverged lane retires alone). If an instance still throws (step
 * collapse, internal fault), the remaining instances run to
 * completion and the lowest-indexed error is rethrown (a lane-batched
 * Dopri5 block throws as a unit: step collapse on the shared step
 * affects every member of the block).
 */
std::vector<SimResult> simulateEnsemble(
    const compiler::OdeSystem &system,
    const std::vector<std::vector<double>> &initialStates, double t0,
    double t1, const EnsembleOptions &options = EnsembleOptions{});

/**
 * Heterogeneous ensemble: integrates N distinct systems (e.g. one per
 * fabricated chip or per random max-cut instance) concurrently, each
 * from its own compiled initial state. Same ordering, determinism,
 * and failure semantics as the homogeneous overload.
 */
std::vector<SimResult> simulateEnsemble(
    const std::vector<const compiler::OdeSystem *> &systems, double t0,
    double t1, const EnsembleOptions &options = EnsembleOptions{});

/**
 * Integrates until max |dq/dt| falls below `derivTol` (checked every
 * sample, on the slopes the run recorded) or tMax is reached;
 * `reachedSteadyState` reports which.
 * @throws ark::support::SimError when options.save is not empty: the
 *         test reads every state's slope.
 */
SimResult simulateToSteadyState(const compiler::OdeSystem &system,
                                double t0, double tMax, double derivTol,
                                const SimOptions &options = SimOptions{});

} // namespace ark::sim

#endif // ARK_SIM_SIM_H
