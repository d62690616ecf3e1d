#ifndef ARK_SIM_BATCH_H
#define ARK_SIM_BATCH_H

/**
 * @file
 * Lane-parallel batch execution engine for ensemble simulation.
 *
 * BatchRunner is the ensemble tier of the execution stack (tier 4 in
 * sim.h's ladder): it partitions an N-instance batch into lane blocks
 * of up to expr::LaneTape::kMaxLanes instances that share one fused
 * program structure and integrates each block over a
 * structure-of-arrays state block — one instruction stream, all
 * lanes per dispatch:
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
 *    compacts, and a single survivor spills to a width-1 continuation
 *    of the exact sim.cc recurrence. The shared
 *    voted grid makes batched adaptive trajectories tolerance-level
 *    equivalent to serial Dopri5 (every accepted step satisfied
 *    every lane's error test; empirically the voted grid, being the
 *    min over lanes, tracks a tight reference closer than the scalar
 *    runs do), NOT bitwise — and still bit-identical across thread
 *    counts, because the voting sequence depends only on the block
 *    assignment.
 *
 * The scalar integrators remain for instances lane batching cannot
 * take: structurally heterogeneous batches (fused programs differing
 * beyond Const immediates — per-lane constant tables absorb
 * parameter differences only), singleton blocks, and
 * laneBatching=false ablation runs. They evaluate through the same
 * LaneTape interpreter (or JIT kernel) at width 1, and their results
 * are bit-identical to serial simulate() for both integrators.
 *
 * Both paths run on a persistent std::jthread worker pool owned by the
 * runner and reused across calls — no per-call thread spawn/join. The
 * pool parks on a condition variable between batches and grows lazily
 * to the requested concurrency.
 *
 * Determinism: block partitioning depends only on the batch, never on
 * thread count or scheduling; each block integrates independently, so
 * results at any thread count equal the single-thread results on
 * every path. EnsembleOptions::progress ticks per completed instance
 * — including lanes that retire mid-block — strictly increasing to
 * the total. SimOptions::tapeFma routes every driver (scalar and
 * lane) through the FMA-contracted tape variant uniformly, so the
 * lane-vs-scalar identity contracts above hold for either setting.
 *
 * Failure discipline (the arkd-prerequisite contract): divergence,
 * budget exhaustion, cancellation, and deadline expiry are always
 * structured per-instance failures — never exceptions — on every
 * path (scalar, lane RK4, voted Dopri5, spill). Exceptions are
 * reserved for caller errors and step-size collapse; with
 * EnsembleOptions::structuredFaults even those are captured as
 * AbortReason::Fault failures on the affected instances instead of
 * rethrowing, which is how the engine::Session retry supervisor
 * turns faults into retryable work.
 */

#include <memory>
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
     * lane-batched together; the rest run scalar.
     */
    std::vector<SimResult>
    run(const std::vector<const compiler::OdeSystem *> &systems,
        double t0, double t1,
        const EnsembleOptions &options = EnsembleOptions{});

    /**
     * Generic batch primitive on the same persistent pool: runs
     * job(0..count-1) with the calling thread participating alongside
     * up to numThreads-1 workers (0 picks the hardware concurrency;
     * the pool is capped at count). Non-ODE batch workloads — the
     * sparse SPICE transient engine (spice::TransientBatch) — ride
     * this instead of spawning their own threads. The job MUST NOT
     * throw: capture exceptions per index and rethrow after the call.
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

} // namespace ark::sim

#endif // ARK_SIM_BATCH_H
