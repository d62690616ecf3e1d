/**
 * @file
 * Tests for the lane-parallel batch execution engine: lane-vs-scalar
 * bit identity on homogeneous and heterogeneous-parameter (PUF chip)
 * batteries, adaptive fallback, the persistent worker pool, progress
 * reporting, and cooperative cancellation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "apps/puf.h"
#include "compiler/compiler.h"
#include "lang/registry.h"
#include "paradigms/standard.h"
#include "sim/batch.h"
#include "sim/sim.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace {

using namespace ark;
using compiler::OdeSystem;
using lang::GraphBuilder;
using sim::BatchRunner;
using sim::EnsembleOptions;
using sim::SimResult;

/** x'' = -w^2 x built through the full Ark pipeline. */
OdeSystem
oscillatorSystem(lang::LanguageRegistry &registry, double w)
{
    if (!registry.findLanguage("osc2")) {
        registry.addProgram(R"(
            lang osc2 {
                ntyp(2,sum) X {attr w2=real[0,1000],
                               init(0) real[-10,10],
                               init(1) real[-10,10]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= -s.w2*var(s);
            }
        )");
    }
    GraphBuilder builder(registry.language("osc2"), 0);
    builder.node("x", "X");
    builder.attr("x", "w2", w * w);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 1.0);
    builder.init("x", 1, 0.0);
    return compiler::compile(builder.take(), registry.language("osc2"));
}

void
expectIdenticalResults(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.ok(), b.ok());
    for (std::size_t s = 0; s < a.trajectory.size(); ++s) {
        EXPECT_EQ(a.trajectory.time(s), b.trajectory.time(s));
        auto stateA = a.trajectory.state(s);
        auto stateB = b.trajectory.state(s);
        ASSERT_EQ(stateA.size(), stateB.size());
        for (std::size_t i = 0; i < stateA.size(); ++i)
            EXPECT_EQ(stateA[i], stateB[i]) << "sample " << s;
    }
}

/** Rk4 ensemble options on a grid fine enough to be interesting. */
EnsembleOptions
rk4Options()
{
    EnsembleOptions options;
    options.sim.method = sim::Method::Rk4;
    options.sim.dt = 1e-3;
    options.sim.recordDt = 1e-2;
    return options;
}

TEST(BatchTest, LaneBlocksMatchScalarPathBitForBit)
{
    // 11 instances: one full 8-lane block plus a padded tail block —
    // both partitions must reproduce one-lane runs exactly, at every
    // thread count.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    std::vector<std::vector<double>> initials;
    for (int i = 0; i < 11; ++i)
        initials.push_back({0.1 * (i + 1), -0.05 * i});

    EnsembleOptions lane = rk4Options();
    EnsembleOptions scalar = rk4Options();
    scalar.laneBatching = false;
    for (unsigned threads : {1u, 2u, 4u}) {
        lane.numThreads = threads;
        scalar.numThreads = threads;
        std::vector<SimResult> laneBatch = sim::simulateEnsemble(
            system, initials, 0.0, 2.0, lane);
        std::vector<SimResult> scalarBatch = sim::simulateEnsemble(
            system, initials, 0.0, 2.0, scalar);
        ASSERT_EQ(laneBatch.size(), initials.size());
        for (std::size_t i = 0; i < initials.size(); ++i) {
            expectIdenticalResults(laneBatch[i], scalarBatch[i]);
            SimResult serial = sim::simulate(system, initials[i], 0.0,
                                             2.0, lane.sim);
            expectIdenticalResults(laneBatch[i], serial);
        }
    }
}

TEST(BatchTest, HeterogeneousPufChipsLaneBatch)
{
    // A real heterogeneous-parameter battery: five fabricated chips
    // of one PUF design (shared structure, per-chip mismatch). The
    // lane path must agree with one-lane blocks bit for bit.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language &gmcTln = registry.language("gmc-tln");
    apps::PufDesign design;
    design.mainSections = 6;
    design.numBranches = 2;
    design.stubSections = 2;
    apps::TlnPuf puf(gmcTln, design);

    std::vector<OdeSystem> chips;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        dg::Graph graph = puf.buildGraph(2, seed);
        validator::validateOrThrow(graph, gmcTln);
        chips.push_back(compiler::compile(graph, gmcTln));
    }
    std::vector<const OdeSystem *> pointers;
    for (const OdeSystem &chip : chips)
        pointers.push_back(&chip);

    EnsembleOptions lane;
    lane.sim.method = sim::Method::Rk4;
    lane.sim.dt = design.windowEnd / 1000.0;
    lane.sim.recordDt = design.windowEnd / 500.0;
    EnsembleOptions scalar = lane;
    scalar.laneBatching = false;
    std::vector<SimResult> laneBatch = sim::simulateEnsemble(
        pointers, 0.0, design.windowEnd, lane);
    std::vector<SimResult> scalarBatch = sim::simulateEnsemble(
        pointers, 0.0, design.windowEnd, scalar);
    ASSERT_EQ(laneBatch.size(), chips.size());
    for (std::size_t i = 0; i < chips.size(); ++i)
        expectIdenticalResults(laneBatch[i], scalarBatch[i]);
}

TEST(BatchTest, AdaptiveBatchesLaneBatchAtToleranceLevel)
{
    // Dopri5 batches now run the lane-synchronized step-voting driver:
    // the shared grid makes results tolerance-level equivalent to the
    // serial adaptive runs (every accepted step passed every lane's
    // error test), while the laneBatching=false ablation still
    // reproduces serial simulate() bit for bit. Deeper adaptive-batch
    // coverage (thread-count bit identity, retirement, voting) lives
    // in dopri5_batch_test.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 1.0);
    std::vector<std::vector<double>> initials;
    for (int i = 0; i < 5; ++i)
        initials.push_back({1.0 + 0.1 * i, 0.0});
    EnsembleOptions lane; // Dopri5 default, laneBatching on
    lane.numThreads = 2;
    EnsembleOptions scalar = lane;
    scalar.laneBatching = false;
    std::vector<SimResult> batch =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, lane);
    std::vector<SimResult> ablation =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, scalar);
    for (std::size_t i = 0; i < initials.size(); ++i) {
        SimResult serial =
            sim::simulate(system, initials[i], 0.0, 1.0, lane.sim);
        expectIdenticalResults(ablation[i], serial);
        ASSERT_TRUE(batch[i].ok());
        // Shared-grid solution vs per-instance adaptive solution: the
        // amplitude is O(1), so a few units of relTol bounds the gap.
        for (double t : {0.25, 0.5, 1.0}) {
            EXPECT_NEAR(batch[i].trajectory.sampleAt(0, t),
                        serial.trajectory.sampleAt(0, t),
                        1e-4)
                << "instance " << i << " at t=" << t;
        }
    }
}

TEST(BatchTest, ProgressReportsEveryInstanceOnce)
{
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 3.0);
    std::vector<std::vector<double>> initials;
    for (int i = 0; i < 9; ++i)
        initials.push_back({0.5, 0.1 * i});

    for (bool lanes : {true, false}) {
        EnsembleOptions options = rk4Options();
        options.laneBatching = lanes;
        options.numThreads = 2;
        std::vector<std::pair<std::size_t, std::size_t>> calls;
        std::mutex m;
        options.progress = [&](std::size_t done, std::size_t total) {
            std::lock_guard lock(m);
            calls.emplace_back(done, total);
        };
        sim::simulateEnsemble(system, initials, 0.0, 0.5, options);
        ASSERT_FALSE(calls.empty());
        std::size_t prev = 0;
        for (auto [done, total] : calls) {
            EXPECT_EQ(total, initials.size());
            EXPECT_GT(done, prev); // strictly increasing
            prev = done;
        }
        EXPECT_EQ(prev, initials.size());
    }
}

TEST(BatchTest, PreTriggeredStopCancelsEveryInstance)
{
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 3.0);
    std::vector<std::vector<double>> initials(6, {1.0, 0.0});
    std::stop_source source;
    source.request_stop();
    for (bool lanes : {true, false}) {
        EnsembleOptions options = rk4Options();
        options.laneBatching = lanes;
        options.stop = source.get_token();
        std::vector<SimResult> batch = sim::simulateEnsemble(
            system, initials, 0.0, 1.0, options);
        ASSERT_EQ(batch.size(), initials.size());
        for (const SimResult &result : batch) {
            ASSERT_FALSE(result.ok());
            EXPECT_EQ(result.failure->reason,
                      sim::AbortReason::Cancelled);
            EXPECT_EQ(result.trajectory.size(), 0u);
        }
    }
}

TEST(BatchTest, StopRequestedMidBatchCancelsTheRest)
{
    // Serial execution (1 thread) makes the cut deterministic: the
    // progress callback fires after the first job and stops the rest.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 3.0);
    std::vector<std::vector<double>> initials(4, {1.0, 0.0});
    EnsembleOptions options = rk4Options();
    options.laneBatching = false; // one job per instance
    options.numThreads = 1;
    std::stop_source source;
    options.stop = source.get_token();
    options.progress = [&](std::size_t done, std::size_t) {
        if (done >= 1)
            source.request_stop();
    };
    std::vector<SimResult> batch =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, options);
    EXPECT_TRUE(batch[0].ok());
    for (std::size_t i = 1; i < batch.size(); ++i) {
        ASSERT_FALSE(batch[i].ok()) << "instance " << i;
        EXPECT_EQ(batch[i].failure->reason,
                  sim::AbortReason::Cancelled);
    }
}

TEST(BatchTest, ExpiredDeadlineRetiresEveryInstanceStructurally)
{
    // A deadline already in the past must skip every instance with a
    // DeadlineExceeded failure — no throw, no samples — with and
    // without lane batching alike.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 3.0);
    std::vector<std::vector<double>> initials(6, {1.0, 0.0});
    for (bool lanes : {true, false}) {
        EnsembleOptions options = rk4Options();
        options.laneBatching = lanes;
        options.deadline = std::chrono::steady_clock::now() -
                           std::chrono::seconds(1);
        std::vector<SimResult> batch = sim::simulateEnsemble(
            system, initials, 0.0, 1.0, options);
        ASSERT_EQ(batch.size(), initials.size());
        for (const SimResult &result : batch) {
            ASSERT_FALSE(result.ok());
            EXPECT_EQ(result.failure->reason,
                      sim::AbortReason::DeadlineExceeded);
            EXPECT_EQ(result.trajectory.size(), 0u);
        }
    }
}

TEST(BatchTest, FarFutureDeadlineLeavesResultsBitIdentical)
{
    // A deadline nothing reaches must not perturb the computation:
    // results stay bit-identical to the unbounded run, and progress
    // stays monotone to the total.
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 3.0);
    std::vector<std::vector<double>> initials;
    for (int i = 0; i < 6; ++i)
        initials.push_back({1.0 + 0.1 * i, 0.0});

    EnsembleOptions plain = rk4Options();
    std::vector<SimResult> unbounded =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, plain);

    EnsembleOptions bounded = rk4Options();
    bounded.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(10);
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    std::mutex m;
    bounded.progress = [&](std::size_t done, std::size_t total) {
        std::lock_guard lock(m);
        calls.emplace_back(done, total);
    };
    std::vector<SimResult> deadlined =
        sim::simulateEnsemble(system, initials, 0.0, 1.0, bounded);

    ASSERT_EQ(deadlined.size(), unbounded.size());
    for (std::size_t i = 0; i < deadlined.size(); ++i)
        expectIdenticalResults(deadlined[i], unbounded[i]);
    std::size_t prev = 0;
    for (auto [done, total] : calls) {
        EXPECT_EQ(total, initials.size());
        EXPECT_GT(done, prev);
        prev = done;
    }
    EXPECT_EQ(prev, initials.size());
}

TEST(BatchTest, PersistentPoolIsReusedAcrossRuns)
{
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    std::vector<std::vector<double>> initials(4, {1.0, 0.0});
    BatchRunner runner;
    EnsembleOptions options = rk4Options();
    // Scalar jobs (one per instance) so the batch actually needs the
    // requested concurrency — a single lane block would run serially.
    options.laneBatching = false;
    options.numThreads = 3;
    EXPECT_EQ(runner.poolThreads(), 0u);
    std::vector<SimResult> first =
        runner.run(system, initials, 0.0, 0.5, options);
    // numThreads=3 -> caller + 2 pool workers, parked between runs.
    EXPECT_EQ(runner.poolThreads(), 2u);
    std::vector<SimResult> second =
        runner.run(system, initials, 0.0, 0.5, options);
    EXPECT_EQ(runner.poolThreads(), 2u);
    for (std::size_t i = 0; i < initials.size(); ++i)
        expectIdenticalResults(first[i], second[i]);
}

TEST(BatchTest, ConcurrentCallersShareOneRunnerSafely)
{
    // Two threads drive the same runner at once; run() serializes
    // whole batches internally, so both must get exactly the serial
    // results (no cross-batch index bleed, no lost jobs).
    lang::LanguageRegistry registry;
    OdeSystem system = oscillatorSystem(registry, 2.0);
    std::vector<std::vector<double>> initialsA(5, {1.0, 0.0});
    std::vector<std::vector<double>> initialsB(5, {0.5, 0.25});
    BatchRunner runner;
    EnsembleOptions options = rk4Options();
    options.laneBatching = false; // many small jobs: max interleaving
    options.numThreads = 2;

    std::vector<SimResult> a, b;
    std::thread threadA([&] {
        a = runner.run(system, initialsA, 0.0, 1.0, options);
    });
    std::thread threadB([&] {
        b = runner.run(system, initialsB, 0.0, 1.0, options);
    });
    threadA.join();
    threadB.join();
    ASSERT_EQ(a.size(), initialsA.size());
    ASSERT_EQ(b.size(), initialsB.size());
    SimResult serialA =
        sim::simulate(system, initialsA[0], 0.0, 1.0, options.sim);
    SimResult serialB =
        sim::simulate(system, initialsB[0], 0.0, 1.0, options.sim);
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdenticalResults(a[i], serialA);
    for (std::size_t i = 0; i < b.size(); ++i)
        expectIdenticalResults(b[i], serialB);
}

TEST(BatchTest, MixedStructureBatterySplitsIntoBlocks)
{
    // Two different system structures interleaved: the group-by-
    // structure partition must lane-batch each class (oscillators in
    // one block, decays in another) despite the interleaving, and
    // everything must still match its serial result positionally.
    lang::LanguageRegistry registry;
    OdeSystem osc = oscillatorSystem(registry, 2.0);
    registry.addProgram(R"(
        lang decay3 {
            ntyp(1,sum) X {attr k=real[0,100]};
            etyp E {};
            prod(e:E,s:X->s:X) s <= -s.k*var(s);
        }
    )");
    GraphBuilder builder(registry.language("decay3"), 0);
    builder.node("x", "X");
    builder.attr("x", "k", 2.0);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, 1.0);
    OdeSystem decay = compiler::compile(builder.take(),
                                        registry.language("decay3"));

    std::vector<const OdeSystem *> pointers{&osc, &decay, &osc, &decay,
                                            &osc};
    EnsembleOptions options = rk4Options();
    std::vector<SimResult> batch =
        sim::simulateEnsemble(pointers, 0.0, 1.0, options);
    ASSERT_EQ(batch.size(), pointers.size());
    for (std::size_t i = 0; i < pointers.size(); ++i) {
        SimResult serial = sim::simulate(
            *pointers[i], pointers[i]->initialState(), 0.0, 1.0,
            options.sim);
        expectIdenticalResults(batch[i], serial);
    }
}

TEST(BatchTest, ParallelForRunsEveryIndexExactlyOnce)
{
    BatchRunner runner;
    for (unsigned threads : {1u, 3u}) {
        for (std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{64}}) {
            std::vector<std::atomic<int>> hits(count);
            runner.parallelFor(count, threads, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
    }
    // threads > count degenerates gracefully; pool stays capped.
    std::atomic<int> total{0};
    runner.parallelFor(2, 16, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 2);
    EXPECT_LE(runner.poolThreads(), 15u);
}

} // namespace
