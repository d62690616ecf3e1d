#ifndef ARK_SIM_BLOCKEVAL_H
#define ARK_SIM_BLOCKEVAL_H

/**
 * @file
 * The RHS evaluator every integrator calls: the scalar drivers
 * (sim.cc, and the spill in batch.cc) through a width-1 broadcast,
 * the lane drivers (batch.cc) through a merged block.
 *
 * Private to sim/. Keeping one evaluator for every path is what makes
 * scalar, lane and JIT execution agree: each evaluation runs either
 * the tier-5 native kernel of the owned LaneTape or, when none
 * resolves, the LaneTape interpreter, and both tiers fire the
 * deterministic TapeNan poison site exactly once per evaluation.
 */

#include <limits>
#include <utility>
#include <vector>

#include "engine/jit.h"
#include "expr/cjit.h"
#include "expr/lanetape.h"
#include "expr/rewrite.h"
#include "sim/sim.h"
#include "support/faultinject.h"

namespace ark::sim::detail {

/**
 * One lane block's RHS, routed through the tier-5 native kernel when
 * one resolves and the LaneTape interpreter otherwise. Resolution
 * happens once, at construction (a cache hit after the first
 * compile); every failure mode — jit off, no toolchain, compile
 * failure — leaves the kernel null and the block runs interpreted
 * with identical results. Owns the interpreter's scratch file, so an
 * evaluator serves one thread at a time.
 */
class BlockEvaluator
{
  public:
    BlockEvaluator(expr::LaneTape tape, bool jitOn)
        : tape_(std::move(tape)),
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
        if (kernel_ == nullptr) {
            tape_.evalInto(state, t, out, file_.data());
            return;
        }
        kernel_->call(state, t, out, tape_.constants().data());
        // The interpreter's poison site, replayed so fault drills see
        // one behaviour on both tiers.
        if (support::FaultInjector::shouldFire(
                support::FaultSite::TapeNan) &&
            tape_.numOutputs() > 0)
            out[0] = std::numeric_limits<double>::quiet_NaN();
    }

  private:
    expr::LaneTape tape_;
    expr::JitKernelPtr kernel_;
    std::vector<double> file_;
};

/**
 * The width-1 program a scalar run of `system` executes: the tape
 * variant `options` select (tapeFma, or tapeReassoc with its
 * ARK_TAPE_REASSOC override), broadcast to one lane.
 */
inline expr::LaneTape
scalarTape(const compiler::OdeSystem &system, const SimOptions &options)
{
    return expr::LaneTape::broadcast(
        system.rhsTape(options.tapeFma,
                       expr::reassocEnabled(options.tapeReassoc)),
        1);
}

} // namespace ark::sim::detail

#endif // ARK_SIM_BLOCKEVAL_H
