/**
 * @file
 * Lane-parallel batch engine benchmarks on the paper's headline
 * ensemble workload: a 32-section TLN PUF challenge battery of
 * mismatched chips.
 *
 * BM_PufBatteryRhsLanes sweeps the lane width (1 = scalar fused
 * baseline) over pure RHS evaluation — the instances/sec counter is
 * the acceptance metric for dispatch amortization + SIMD. The
 * BM_PufBatteryEnsembleRk4 pair measures the end-to-end fixed-step
 * battery through BatchRunner with lane batching on vs off
 * (single-thread, so the ratio isolates the lane win from pool
 * parallelism). The BM_EnsembleDopri5{Scalar,Lanes} pair does the
 * same for the adaptive default: one one-lane Dopri5 block per
 * instance vs 8-lane step-voting blocks on one voted grid.
 * BM_PufBatteryRhsJit and BM_EnsembleDopri5Jit are the JIT twins:
 * the same RHS blocks served by runtime-compiled native kernels, and
 * the same adaptive battery with SimOptions::jit on — each reads
 * against its interpreted counterpart above.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "apps/puf.h"
#include "compiler/compiler.h"
#include "engine/jit.h"
#include "expr/cjit.h"
#include "expr/lanetape.h"
#include "paradigms/standard.h"
#include "sim/sim.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace {

using namespace ark;

constexpr int kChips = 8;

apps::PufDesign
batteryDesign()
{
    apps::PufDesign design;
    design.mainSections = 32;
    design.numBranches = 4;
    design.stubSections = 4;
    return design;
}

/** Compiles the 8-chip battery once per process. */
const std::vector<compiler::OdeSystem> &
batterySystems()
{
    static const std::vector<compiler::OdeSystem> systems = [] {
        lang::LanguageRegistry registry =
            paradigms::makeStandardRegistry();
        const lang::Language &gmcTln = registry.language("gmc-tln");
        apps::TlnPuf puf(gmcTln, batteryDesign());
        std::vector<compiler::OdeSystem> compiled;
        for (std::uint64_t seed = 1; seed <= kChips; ++seed) {
            dg::Graph graph = puf.buildGraph(0xB, seed);
            validator::validateOrThrow(graph, gmcTln);
            compiled.push_back(compiler::compile(graph, gmcTln));
        }
        return compiled;
    }();
    return systems;
}

/**
 * RHS throughput at a given lane width: the battery's 8 instances
 * evaluated as blocks of `width` lanes (width 1 runs the scalar fused
 * tape). items/sec == instance-RHS-evaluations/sec.
 */
void
BM_PufBatteryRhsLanes(benchmark::State &state)
{
    const auto width = static_cast<std::size_t>(state.range(0));
    const std::vector<compiler::OdeSystem> &systems = batterySystems();
    const std::size_t n = systems.front().size();

    support::Rng rng(99);
    if (width == 1) {
        std::vector<std::vector<double>> states(kChips);
        for (auto &chipState : states)
            for (std::size_t i = 0; i < n; ++i)
                chipState.push_back(rng.uniform(-1.0, 1.0));
        std::vector<double> dstate(n);
        std::vector<double> scratch = systems.front().makeScratch();
        for (auto _ : state) {
            for (std::size_t c = 0; c < kChips; ++c) {
                systems[c].evalRhs(states[c].data(), 1e-8,
                                   dstate.data(), scratch);
                benchmark::DoNotOptimize(dstate.data());
            }
        }
    } else {
        std::vector<expr::LaneTape> blocks;
        std::vector<std::vector<double>> soaStates;
        for (std::size_t base = 0; base < kChips; base += width) {
            std::vector<const expr::FusedTape *> tapes;
            for (std::size_t l = 0; l < width; ++l)
                tapes.push_back(&systems[base + l].fusedTape());
            std::optional<expr::LaneTape> lane =
                expr::LaneTape::merge(tapes);
            if (!lane) {
                state.SkipWithError("PUF chips failed to lane-merge");
                return;
            }
            std::vector<double> soa(n * lane->width());
            for (double &v : soa)
                v = rng.uniform(-1.0, 1.0);
            blocks.push_back(*std::move(lane));
            soaStates.push_back(std::move(soa));
        }
        std::vector<double> out(n * width);
        std::vector<double> regs(blocks.front().scratchSize());
        for (auto _ : state) {
            for (std::size_t b = 0; b < blocks.size(); ++b) {
                blocks[b].evalInto(soaStates[b].data(), 1e-8,
                                   out.data(), regs.data());
                benchmark::DoNotOptimize(out.data());
            }
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChips);
}
BENCHMARK(BM_PufBatteryRhsLanes)->Arg(1)->Arg(4)->Arg(8);

/**
 * End-to-end fixed-step battery: 8 chips over the full observation
 * window, single-thread. items/sec == instances integrated per
 * second; lane:1 vs lane:0 is the acceptance-criterion ratio.
 */
void
BM_PufBatteryEnsembleRk4(benchmark::State &state)
{
    const bool lanes = state.range(0) != 0;
    const std::vector<compiler::OdeSystem> &systems = batterySystems();
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);

    const apps::PufDesign design = batteryDesign();
    sim::EnsembleOptions options;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = design.windowEnd / 4000.0;
    options.sim.recordDt = design.windowEnd / 4000.0;
    options.numThreads = 1;
    options.laneBatching = lanes;
    for (auto _ : state) {
        std::vector<sim::SimResult> results = sim::simulateEnsemble(
            pointers, 0.0, design.windowEnd, options);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChips);
}
BENCHMARK(BM_PufBatteryEnsembleRk4)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Adaptive battery, one one-lane Dopri5 block per instance
 * (laneBatching off): the pre-voting baseline every chip used to
 * take. Default
 * tolerances, single-thread; items/sec == instances integrated per
 * second.
 */
void
BM_EnsembleDopri5Scalar(benchmark::State &state)
{
    const std::vector<compiler::OdeSystem> &systems = batterySystems();
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);
    const apps::PufDesign design = batteryDesign();
    sim::EnsembleOptions options; // Dopri5 default tolerances
    options.numThreads = 1;
    options.laneBatching = false;
    for (auto _ : state) {
        std::vector<sim::SimResult> results = sim::simulateEnsemble(
            pointers, 0.0, design.windowEnd, options);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChips);
}
BENCHMARK(BM_EnsembleDopri5Scalar)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Adaptive battery through the lane-synchronized step-voting driver:
 * all 8 chips advance on one voted step in an 8-lane block. The
 * ratio to BM_EnsembleDopri5Scalar is the adaptive-batch acceptance
 * metric (single-thread, so it isolates the lane win).
 */
void
BM_EnsembleDopri5Lanes(benchmark::State &state)
{
    const std::vector<compiler::OdeSystem> &systems = batterySystems();
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);
    const apps::PufDesign design = batteryDesign();
    sim::EnsembleOptions options; // Dopri5 default tolerances
    options.numThreads = 1;
    options.laneBatching = true;
    for (auto _ : state) {
        std::vector<sim::SimResult> results = sim::simulateEnsemble(
            pointers, 0.0, design.windowEnd, options);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChips);
}
BENCHMARK(BM_EnsembleDopri5Lanes)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * RHS throughput through JIT native kernels: the same battery and
 * block shapes as BM_PufBatteryRhsLanes, with each block's program
 * compiled to a native kernel and evaluated through its function
 * pointer. The ratio to the same-width interpreted run is the JIT
 * acceptance metric (the issue targets >= 2x over interpreted W=8).
 * Skipped (with an error) on hosts without a C toolchain.
 */
void
BM_PufBatteryRhsJit(benchmark::State &state)
{
    const auto width = static_cast<std::size_t>(state.range(0));
    const std::vector<compiler::OdeSystem> &systems = batterySystems();
    const std::size_t n = systems.front().size();

    support::Rng rng(99);
    std::vector<expr::LaneTape> blocks;
    std::vector<expr::JitKernelPtr> kernels;
    std::vector<std::vector<double>> soaStates;
    for (std::size_t base = 0; base < kChips; base += width) {
        std::optional<expr::LaneTape> lane;
        if (width == 1) {
            lane = expr::LaneTape::broadcast(systems[base].fusedTape(),
                                             1);
        } else {
            std::vector<const expr::FusedTape *> tapes;
            for (std::size_t l = 0; l < width; ++l)
                tapes.push_back(&systems[base + l].fusedTape());
            lane = expr::LaneTape::merge(tapes);
            if (!lane) {
                state.SkipWithError("PUF chips failed to lane-merge");
                return;
            }
        }
        expr::JitKernelPtr kernel = engine::jitKernel(*lane);
        if (kernel == nullptr) {
            state.SkipWithError("no host C toolchain for the JIT");
            return;
        }
        std::vector<double> soa(n * lane->width());
        for (double &v : soa)
            v = rng.uniform(-1.0, 1.0);
        blocks.push_back(*std::move(lane));
        kernels.push_back(std::move(kernel));
        soaStates.push_back(std::move(soa));
    }
    std::vector<double> out(n * width);
    for (auto _ : state) {
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            kernels[b]->call(soaStates[b].data(), 1e-8, out.data(),
                             blocks[b].constants().data());
            benchmark::DoNotOptimize(out.data());
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChips);
}
BENCHMARK(BM_PufBatteryRhsJit)->Arg(1)->Arg(8);

/**
 * Adaptive battery with JIT kernels serving the step-voting
 * driver's RHS (SimOptions::jit on, lane batching on). Compare with
 * BM_EnsembleDopri5Lanes for the kernel win and with
 * BM_EnsembleDopri5Scalar for the full interpreter -> JIT climb; falls
 * back to the interpreted driver (and measures it) without a
 * toolchain.
 */
void
BM_EnsembleDopri5Jit(benchmark::State &state)
{
    const std::vector<compiler::OdeSystem> &systems = batterySystems();
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);
    const apps::PufDesign design = batteryDesign();
    sim::EnsembleOptions options; // Dopri5 default tolerances
    options.numThreads = 1;
    options.laneBatching = true;
    options.sim.jit = true;
    for (auto _ : state) {
        std::vector<sim::SimResult> results = sim::simulateEnsemble(
            pointers, 0.0, design.windowEnd, options);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChips);
}
BENCHMARK(BM_EnsembleDopri5Jit)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace
