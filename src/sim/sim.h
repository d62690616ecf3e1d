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
 * RHS evaluation has five execution tiers at identical semantics.
 * The first three are references; every integrator runs tier 4 or 5:
 *
 *  1. tree interpreter (OdeSystem::evalRhsInterpreted) — ground truth
 *     for equivalence tests;
 *  2. per-variable tapes (evalRhsPerTape) — one register program per
 *     equation, kept as the ablation path;
 *  3. fused whole-system tape (expr::FusedTape) — the compiler: one
 *     program with cross-equation CSE fills all of dstate per pass.
 *     Its own evaluator (evalRhs / FusedTape::evalInto) is the oracle
 *     the bit-identity suites compare against; no integrator calls it;
 *  4. LaneTape interpreter (expr::LaneTape) — the fused programs of
 *     one to eight instances merged over a structure-of-arrays block,
 *     amortizing instruction dispatch and autovectorizing the lane
 *     loops;
 *  5. JIT native kernels (expr/cjit.h, SimOptions::jit) — the lane
 *     program lowered to straight-line C, compiled at runtime, and
 *     called through one function pointer per evaluation. Results are
 *     bit-identical to tiers 3/4 (same IEEE ops in the same order);
 *     any compile problem silently falls back to the interpreted tier.
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
 * Every ensemble job runs on BatchRunner's persistent worker pool and
 * honors EnsembleOptions::progress/stop.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stop_token>
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
     * Evaluate the RHS through the FMA-contracted tape variant
     * (expr::FusedTape::compile with fuseMulAdd): single-use Mul+Add pairs
     * execute as one FusedMulAdd instruction via std::fma — exactly
     * one rounding for a*b+c, deterministic across hosts. Off by
     * default: the contracted program agrees with the plain tape only
     * to rounding (~1 ulp per pair), so the default build keeps the
     * tier-equivalence bit contract. Blocks of every width honor the
     * flag identically, so lane-vs-serial bit identity holds for
     * either setting. Perf note: the contraction removes one
     * instruction per pair but only pays off where std::fma is a
     * hardware instruction (ARK_ENABLE_NATIVE on FMA hosts);
     * baseline-ISA builds route through libm's soft fma, which is
     * slower than Mul+Add.
     */
    bool tapeFma = false;

    /**
     * Evaluate the RHS through the reassociated tape variant
     * (expr/rewrite.h then FMA contraction): division by a constant
     * becomes multiplication by its reciprocal and literal
     * coefficients gather at the head of each product, exposing
     * FusedMulAdd contractions the plain matcher cannot see through
     * intervening Div/Neg nodes (GmC-TLN terms like `w*var(t)/c`
     * contract 0% without it). Same contract as tapeFma — the
     * rewritten program agrees with the default tape only to
     * tolerance level, never reorders sums, and never touches
     * branch-deciding subtrees — so it is off by default and all
     * tiers honor the flag identically (lane-vs-serial bit identity
     * holds under the flag). Takes precedence over tapeFma when both
     * are set (the reassociated variant is always FMA-contracted).
     * The ARK_TAPE_REASSOC environment variable overrides this flag
     * in both directions (expr::reassocEnabled).
     */
    bool tapeReassoc = false;

    /**
     * Serve RHS evaluation from tier-5 JIT-compiled native kernels
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
 * Recorded trajectory: times plus full state per sample.
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
    /**
     * Appends a sample; `deriv` (dstate/dt at the sample, optional)
     * enables cubic Hermite interpolation in sampleAt. All samples
     * must share the first sample's dimension.
     */
    void addSample(double t, const std::vector<double> &state,
                   const std::vector<double> *deriv = nullptr);

    /** Pre-sizes the buffers for `samples` samples of `stateDim`. */
    void reserve(std::size_t samples, std::size_t stateDim);

    std::size_t size() const { return times_.size(); }
    /** State-vector length; 0 until the first sample lands. */
    std::size_t stateDim() const { return stateDim_; }
    const std::vector<double> &times() const { return times_; }
    /** One recorded state vector (a view into the flat buffer). */
    std::span<const double> state(std::size_t sample) const;
    double time(std::size_t sample) const { return times_.at(sample); }

    /** True while every sample has carried a derivative. */
    bool hasDerivs() const { return !times_.empty() && !derivsDropped_; }

    /**
     * The dstate/dt recorded with one sample (a view into the flat
     * slope buffer). The simulation drivers record, with every
     * sample, the RHS they integrated evaluated at that sample.
     * Requires hasDerivs().
     */
    std::span<const double> deriv(std::size_t sample) const;

    /** Series of one state variable across all samples. */
    std::vector<double> series(int stateIndex) const;

    /**
     * Value of one state variable at time t (clamped to the recorded
     * range): cubic Hermite between samples when derivatives were
     * recorded (O(h^4) — accurate across large adaptive steps),
     * linear otherwise.
     */
    double sampleAt(int stateIndex, double t) const;

    /** Resamples a variable onto a uniform grid of n points. */
    std::vector<double> resample(int stateIndex, double t0, double t1,
                                 std::size_t n) const;

  private:
    std::size_t stateDim_ = 0;
    std::vector<double> times_;
    std::vector<double> states_; ///< Flat, size() * stateDim_.
    std::vector<double> derivs_; ///< Flat; empty once dropped.
    bool derivsDropped_ = false;
};

/**
 * Why an instance stopped before reaching t1.
 *
 * Failure taxonomy (the arkd admission-control contract): every entry
 * here is an *instance-level* outcome — it is reported as a structured
 * SimResult::failure on exactly the affected instance, never as an
 * exception that poisons co-batched neighbors. Exceptions remain
 * reserved for caller errors (bad time range, wrong state dimension)
 * and for step-size collapse, which indicates a misconfigured
 * tolerance/step floor rather than a property of one instance's data.
 */
enum class AbortReason : std::uint8_t {
    Diverged,  ///< A state variable went NaN/Inf.
    Cancelled, ///< The ensemble's stop token was triggered.
    BudgetExhausted,  ///< SimOptions::maxSteps spent before reaching t1.
    DeadlineExceeded, ///< EnsembleOptions::deadline passed mid-run.
    Fault, ///< An internal exception was captured as a structured
           ///< failure (EnsembleOptions::structuredFaults).
};

/** Stable lower-case spelling for logs and ledger exports. */
const char *abortReasonName(AbortReason reason);

/**
 * Structured early-stop report. Divergence is detected the moment a
 * nonfinite value appears (accepted state or Dopri5 error estimate)
 * and aborts the instance right there — it is never integrated onward
 * toward maxSteps — recording which step and which state variable
 * went bad. The trajectory keeps every sample recorded before the
 * failure. Budget exhaustion and deadline expiry are reported the same
 * way: the instance stops at the step where the budget ran out (or the
 * wall clock passed the deadline) and keeps everything recorded so
 * far.
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
    /** Set when the run stopped early (divergence, cancellation). */
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
     * Optional completion callback: invoked with (completed, total)
     * as each instance completes, at every block width
     * (a lane that retires mid-block — divergence, cancellation —
     * reports the moment it retires, not when its block ends).
     * `completed` is strictly increasing and reaches `total` exactly
     * once. Serialized internally — the callback never runs
     * concurrently with itself — but it may be invoked from worker
     * threads; keep it cheap and do not call back into the ensemble
     * API from inside it.
     */
    std::function<void(std::size_t completed, std::size_t total)> progress;

    /**
     * Cooperative cancellation. When the token's stop is requested,
     * instances not yet started are skipped and running instances
     * abort at the next integration step; all affected results carry
     * an AbortReason::Cancelled failure. A default-constructed token
     * never requests stop.
     */
    std::stop_token stop;

    /**
     * Wall-clock deadline, checked cooperatively at the same step
     * granularity as `stop`. Once steady_clock passes it, running
     * instances abort at their next step check and instances not yet
     * started are skipped; all affected results carry an
     * AbortReason::DeadlineExceeded failure, and everything that
     * completed before the cutoff is returned untouched (bit-identical
     * to the same run without a deadline). Unset = no deadline.
     */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /**
     * When true, an exception escaping an instance (or a lane block)
     * is captured as an AbortReason::Fault failure on the affected
     * result(s) instead of being rethrown after the batch drains —
     * simulateEnsemble then never throws for per-instance causes. Off
     * by default to preserve the historical rethrow contract; the
     * engine::Session retry supervisor turns it on so faults become
     * retryable data instead of control flow.
     */
    bool structuredFaults = false;

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
 * Divergence, budget exhaustion, deadline expiry, and cancellation
 * never throw — the affected instance's result carries a structured
 * failure, and healthy lane-mates in the same block keep integrating
 * (an exhausted or diverged lane retires alone). If an instance still
 * throws (step collapse, internal fault), the remaining instances run
 * to completion and the lowest-indexed error is rethrown (a
 * lane-batched Dopri5 block throws as a unit: step collapse on the
 * shared step affects every member of the block) — unless
 * options.structuredFaults is set, in which case the capture becomes
 * an AbortReason::Fault failure on the affected result(s) instead.
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
 * sample, on the slopes the run recorded — so under tapeFma or
 * tapeReassoc the check follows the program actually integrated) or
 * tMax is reached; `reachedSteadyState` reports which.
 */
SimResult simulateToSteadyState(const compiler::OdeSystem &system,
                                double t0, double tMax, double derivTol,
                                const SimOptions &options = SimOptions{});

} // namespace ark::sim

#endif // ARK_SIM_SIM_H
