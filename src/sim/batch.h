#ifndef ARK_SIM_BATCH_H
#define ARK_SIM_BATCH_H

/**
 * @file
 * Lane-parallel batch execution engine for ensemble simulation.
 *
 * BatchRunner is the ensemble tier of the execution stack (tiers 3
 * and 4 in sim.h's ladder): it partitions an N-instance batch into
 * lane blocks of up to expr::LaneTape::kMaxLanes instances that share
 * one fused program structure and integrates each block over a
 * structure-of-arrays state block — one instruction stream, all
 * lanes per dispatch. Each method has exactly one integrator, and it
 * runs every block at whatever width the block needs, from 1 to 8:
 *
 *  - Rk4 blocks run the lane-batched fixed-step driver on the shared
 *    grid; every lane's trajectory is bit-identical to serial
 *    simulate() of that instance.
 *  - Dopri5 blocks run the lane-synchronized adaptive driver ("step
 *    voting"): per step, every lane gets its own embedded error
 *    estimate, the block accepts only when every active lane's error
 *    test passes, and the next shared step size is the minimum of
 *    the per-lane PI controller outputs. Rejections are charged only
 *    to the lanes whose error exceeded 1 (per-lane rejection
 *    masking). A diverging lane (nonfinite error estimate or
 *    accepted state) retires on the spot with a structured failure
 *    while the rest keep integrating, and so does a lane whose step
 *    budget runs out (shared accepted steps plus the lane's own
 *    rejections reaching maxSteps retires THAT lane with
 *    BudgetExhausted — a stiff instance cannot take down its
 *    lane-mates); when survivors fit a narrower SoA width the block
 *    compacts, down to width 1 for a last survivor. The shared
 *    voted grid makes batched adaptive trajectories tolerance-level
 *    equivalent to serial Dopri5 (every accepted step satisfied
 *    every lane's error test; empirically the voted grid, being the
 *    min over lanes, tracks a tight reference closer than the
 *    one-lane runs do), NOT bitwise — and still bit-identical across
 *    thread counts, because the voting sequence depends only on the
 *    block assignment.
 *
 * Instances lane batching cannot pair — structurally heterogeneous
 * batches (fused programs differing beyond Const immediates —
 * per-lane constant tables absorb parameter differences only),
 * singleton blocks, and laneBatching=false ablation runs — become
 * one-lane blocks of the same drivers. A one-lane block is exactly
 * what simulate() runs, so those results are bit-identical to serial
 * simulate() for both integrators.
 *
 * Jobs run on a persistent std::jthread worker pool owned by the
 * runner and reused across calls — no per-call thread spawn/join. The
 * pool parks on a condition variable between batches and grows lazily
 * to the requested concurrency.
 *
 * Determinism: block partitioning depends only on the batch, never on
 * thread count or scheduling; each block integrates independently, so
 * results at any thread count equal the single-thread results on
 * every path. SimOptions::rounding routes every block through the
 * same program of the selected rounding mode, so the identity
 * contracts above hold in every mode.
 *
 * Failure discipline: divergence and budget exhaustion are always
 * structured per-instance failures — never exceptions — at every
 * block width. Exceptions are reserved for caller errors, step-size
 * collapse and internal faults; one that escapes a block is stored,
 * the batch drains, and the lowest-indexed instance's exception is
 * rethrown.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim.h"

namespace ark::sim {

/**
 * Persistent-pool ensemble runner. One instance may be shared across
 * threads (calls are serialized internally); most callers want the
 * process-wide shared() runner, which sim::simulateEnsemble routes
 * through.
 */
class BatchRunner
{
  public:
    BatchRunner();
    ~BatchRunner();

    BatchRunner(const BatchRunner &) = delete;
    BatchRunner &operator=(const BatchRunner &) = delete;

    /**
     * Homogeneous batch: one system, N initial states. Same contract
     * as sim::simulateEnsemble (ordering, determinism, structured
     * failures, throw semantics).
     */
    std::vector<SimResult>
    run(const compiler::OdeSystem &system,
        const std::vector<std::vector<double>> &initialStates, double t0,
        double t1, const EnsembleOptions &options = EnsembleOptions{});

    /**
     * Heterogeneous batch: N distinct systems, each from its compiled
     * initial state. Instances whose fused programs are structurally
     * identical (e.g. per-chip mismatch variants of one circuit) are
     * lane-batched together; the rest run as one-lane blocks.
     */
    std::vector<SimResult>
    run(const std::vector<const compiler::OdeSystem *> &systems,
        double t0, double t1,
        const EnsembleOptions &options = EnsembleOptions{});

    /**
     * Generic batch primitive on the same persistent pool: runs
     * job(0..count-1) with the calling thread participating alongside
     * up to numThreads-1 workers (0 picks the hardware concurrency;
     * the pool is capped at count). Non-ODE batch workloads ride this
     * instead of spawning their own threads: the sparse SPICE
     * transient engine (spice::TransientBatch) and the per-trial
     * front end (draw, graph build, compile, netlist mapping) of the
     * apps sweeps (apps/experiments.h).
     *
     * A throwing job does not stop the batch: every index runs
     * exactly once, and after the batch drains the exception of the
     * lowest index that threw is rethrown (the others are dropped) —
     * what a serial loop's first failure would be, at any thread
     * count. Jobs run concurrently, so anything they share must be
     * thread-safe; a job must not call back into this runner with
     * more than one thread, because the pool runs one batch at a
     * time.
     */
    void parallelFor(std::size_t count, unsigned numThreads,
                     const std::function<void(std::size_t)> &job);

    /** Worker threads currently parked in the pool. */
    unsigned poolThreads() const;

    /** Process-wide runner backing sim::simulateEnsemble. */
    static BatchRunner &shared();

  private:
    class Pool;

    std::vector<SimResult>
    runImpl(const compiler::OdeSystem *homogeneous,
            const std::vector<std::vector<double>> *initialStates,
            const std::vector<const compiler::OdeSystem *> *systems,
            double t0, double t1, const EnsembleOptions &options);

    std::unique_ptr<Pool> pool_;
};

namespace detail {

/**
 * The state indices of `save`'s nodes in `system`, every derivative
 * order, ascending; every state when `save` is empty
 * (SimOptions::save).
 * @throws ark::support::SimError for a node the system lacks.
 */
std::vector<std::size_t> savedStates(const compiler::OdeSystem &system,
                                     const std::vector<std::string> &save);

/**
 * Integrates one block: instance k of `systems` from `initials[k]`
 * (one to expr::LaneTape::kMaxLanes instances of one program
 * structure), storing the states `saved[k]` (savedStates) in its
 * trajectory. Takes each member's program for `rounding`, merges
 * them into one LaneTape (width 1 for a single member), and runs the
 * driver for options.method. The caller resolves `saved`, `rounding`
 * and `jitOn` once per run (savedStates, expr::roundingMode,
 * expr::jitEnabled). A JIT kernel serves the RHS when `jitOn` and one
 * resolves; `usedJit`, when given, reports whether one did. The
 * engine behind simulate() and every BatchRunner job; not part of the
 * public API.
 */
std::vector<SimResult> integrateBlock(
    const std::vector<const compiler::OdeSystem *> &systems,
    const std::vector<const std::vector<double> *> &initials,
    const std::vector<const std::vector<std::size_t> *> &saved, double t0,
    double t1, const SimOptions &options, expr::RoundingMode rounding,
    bool jitOn, bool *usedJit = nullptr);

} // namespace detail

} // namespace ark::sim

#endif // ARK_SIM_BATCH_H
