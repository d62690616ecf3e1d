/**
 * @file
 * Tests for the batched SPICE transient engine: sparse-vs-dense
 * equivalence on random generated TLN netlists (the tentpole property
 * test), shared-structure factorization reuse, per-instance
 * structured failures (singular matrix, nonfinite state), members of
 * a group whose leader cannot be factored (with and without a stepper
 * cache), saved nodes (TransientBatchOptions::save), batch-level input
 * validation, and thread-count invariance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "apps/experiments.h"
#include "engine/cache.h"
#include "engine/session.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "spice/batch.h"
#include "spice/map_tln.h"
#include "spice/mna.h"
#include "spice/netlist.h"
#include "support/error.h"
#include "support/rng.h"
#include "validator/validator.h"

namespace {

using namespace ark;
using namespace ark::spice;
using support::SimError;

namespace ptln = paradigms::tln;

class SpiceBatchTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        registry_ = new lang::LanguageRegistry(
            paradigms::makeStandardRegistry());
    }
    static void TearDownTestSuite()
    {
        delete registry_;
        registry_ = nullptr;
    }

    /** Random mismatched GmC line mapped to a netlist. */
    static MappedTln
    randomLine(std::uint64_t seed, int minSections = 2,
               int maxSections = 6)
    {
        const lang::Language &gmc = registry_->language("gmc-tln");
        support::Rng rng(seed * 7919 + 13);
        ptln::LineSpec spec;
        spec.sections = static_cast<int>(
            rng.uniformInt(minSections, maxSections));
        spec.inductance = rng.uniform(0.5e-9, 2e-9);
        spec.capacitance = rng.uniform(0.5e-9, 2e-9);
        spec.sourceConductance = rng.uniform(0.5, 2.0);
        spec.termConductance = rng.uniform(0.5, 2.0);
        spec.mismatchC = true;
        spec.mismatchGm = true;
        spec.seed = rng.deriveSeed();
        dg::Graph graph = ptln::buildLine(gmc, spec);
        validator::validateOrThrow(graph, gmc);
        return mapTlnToSpice(graph, gmc);
    }

    /** Same topology for every seed: only the mismatch values vary. */
    static MappedTln
    sharedStructureLine(std::uint64_t seed, int sections = 5)
    {
        const lang::Language &gmc = registry_->language("gmc-tln");
        ptln::LineSpec spec;
        spec.sections = sections;
        spec.mismatchC = true;
        spec.mismatchGm = true;
        spec.seed = seed;
        dg::Graph graph = ptln::buildLine(gmc, spec);
        validator::validateOrThrow(graph, gmc);
        return mapTlnToSpice(graph, gmc);
    }

    static lang::LanguageRegistry *registry_;
};

lang::LanguageRegistry *SpiceBatchTest::registry_ = nullptr;

/** Max |a-b| over all samples/unknowns, relative to the peak |a|. */
double
maxRelDeviation(const TransientResult &a, const TransientResult &b)
{
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.dim(), b.dim());
    double peak = 0.0;
    for (std::size_t s = 0; s < a.size(); ++s)
        for (double v : a.state(s))
            peak = std::max(peak, std::fabs(v));
    double worst = 0.0;
    for (std::size_t s = 0; s < a.size() && s < b.size(); ++s) {
        auto sa = a.state(s);
        auto sb = b.state(s);
        for (std::size_t i = 0; i < sa.size(); ++i)
            worst = std::max(worst, std::fabs(sa[i] - sb[i]));
    }
    return peak > 0.0 ? worst / peak : worst;
}

void
expectBitIdentical(const TransientResult &a, const TransientResult &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.dim(), b.dim());
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a.time(s), b.time(s));
        auto sa = a.state(s);
        auto sb = b.state(s);
        for (std::size_t i = 0; i < sa.size(); ++i)
            ASSERT_EQ(sa[i], sb[i]) << "sample " << s << " unknown " << i;
    }
}

TEST_F(SpiceBatchTest, SparseTransientMatchesDenseOnRandomTln)
{
    // The tentpole equivalence property: on random generated TLN
    // netlists the sparse MNA transient tracks the dense path to
    // rounding (<= 1e-12 relative to the waveform peak).
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        MappedTln mapped = randomLine(seed);
        MnaSystem dense(mapped.netlist);
        SparseMnaSystem sparse(mapped.netlist);
        ASSERT_EQ(dense.size(), sparse.size());
        TransientResult viaDense = transient(dense, 0.0, 2e-8, 1e-11);
        TransientResult viaSparse = transient(sparse, 0.0, 2e-8, 1e-11);
        ASSERT_TRUE(viaDense.ok());
        ASSERT_TRUE(viaSparse.ok());
        EXPECT_LE(maxRelDeviation(viaDense, viaSparse), 1e-12)
            << "seed " << seed;
    }
}

TEST_F(SpiceBatchTest, SparseSystemMirrorsDenseAssembly)
{
    MappedTln mapped = randomLine(9);
    MnaSystem dense(mapped.netlist);
    SparseMnaSystem sparse(mapped.netlist);
    ASSERT_EQ(dense.size(), sparse.size());
    ASSERT_EQ(dense.numNodeUnknowns(), sparse.numNodeUnknowns());
    for (std::size_t r = 0; r < dense.size(); ++r) {
        EXPECT_EQ(dense.rowIsDynamic(r), sparse.rowIsDynamic(r));
        for (std::size_t c = 0; c < dense.size(); ++c) {
            EXPECT_DOUBLE_EQ(sparse.massMatrix().at(r, c),
                             dense.massMatrix()(r, c));
            EXPECT_DOUBLE_EQ(sparse.stiffnessMatrix().at(r, c),
                             dense.stiffnessMatrix()(r, c));
        }
    }
    std::vector<double> ud = dense.sourceVector(3e-9);
    std::vector<double> us = sparse.sourceVector(3e-9);
    for (std::size_t r = 0; r < ud.size(); ++r)
        EXPECT_DOUBLE_EQ(us[r], ud[r]);
}

TEST_F(SpiceBatchTest, SharedStructureInstancesGroup)
{
    SparseMnaSystem a(sharedStructureLine(1).netlist);
    SparseMnaSystem b(sharedStructureLine(2).netlist);
    SparseMnaSystem c(randomLine(3, 7, 7).netlist); // different topology
    EXPECT_TRUE(a.sharesStructure(b));
    EXPECT_FALSE(a.sharesMatrixValues(b)); // mismatch values differ
    EXPECT_TRUE(a.sharesMatrixValues(a));
    EXPECT_FALSE(a.sharesStructure(c));
}

TEST_F(SpiceBatchTest, BatchMatchesSerialOnMixedTopologies)
{
    // Mixed sweep: several shared-structure groups plus singletons.
    std::vector<MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        mapped.push_back(sharedStructureLine(seed));
    for (std::uint64_t seed = 5; seed <= 8; ++seed)
        mapped.push_back(randomLine(seed));
    std::vector<const Netlist *> netlists;
    for (const MappedTln &map : mapped)
        netlists.push_back(&map.netlist);

    const double t1 = 1e-8, dt = 1e-11;
    TransientBatch sparseBatch;
    TransientBatchStats stats;
    std::vector<TransientResult> batched =
        sparseBatch.run(netlists, 0.0, t1, dt, &stats);
    ASSERT_EQ(batched.size(), netlists.size());
    // The four shared-structure instances collapse into one group;
    // the random topologies add at most one group each.
    EXPECT_GE(stats.structureGroups, 1u);
    EXPECT_LE(stats.structureGroups, 5u);
    for (std::size_t i = 0; i < netlists.size(); ++i) {
        ASSERT_TRUE(batched[i].ok()) << "instance " << i;
        MnaSystem dense(*netlists[i]);
        TransientResult serial = transient(dense, 0.0, t1, dt);
        EXPECT_LE(maxRelDeviation(serial, batched[i]), 1e-12)
            << "instance " << i;
    }
}

TEST_F(SpiceBatchTest, IdenticalInstancesShareFactorsExactly)
{
    // Bit-identical netlists share the leader's factors outright, so
    // every instance must reproduce the serial sparse run exactly.
    MappedTln mapped = sharedStructureLine(42);
    std::vector<const Netlist *> netlists(5, &mapped.netlist);
    SparseMnaSystem system(mapped.netlist);
    TransientResult serial = transient(system, 0.0, 1e-8, 1e-11);
    TransientBatchStats stats;
    std::vector<TransientResult> batched =
        TransientBatch().run(netlists, 0.0, 1e-8, 1e-11, &stats);
    EXPECT_EQ(stats.structureGroups, 1u);
    for (const TransientResult &result : batched)
        expectBitIdentical(serial, result);
}

TEST_F(SpiceBatchTest, ResultsIndependentOfThreadCount)
{
    std::vector<MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        mapped.push_back(sharedStructureLine(seed));
    std::vector<const Netlist *> netlists;
    for (const MappedTln &map : mapped)
        netlists.push_back(&map.netlist);

    TransientBatchOptions one;
    one.numThreads = 1;
    TransientBatchOptions four;
    four.numThreads = 4;
    std::vector<TransientResult> serial =
        TransientBatch(one).run(netlists, 0.0, 1e-8, 1e-11);
    std::vector<TransientResult> threaded =
        TransientBatch(four).run(netlists, 0.0, 1e-8, 1e-11);
    for (std::size_t i = 0; i < netlists.size(); ++i)
        expectBitIdentical(serial[i], threaded[i]);
}

TEST_F(SpiceBatchTest, SingularInstanceFailsAloneStructurally)
{
    // A floating resistor pair has a singular conductance matrix; it
    // must fail with a structured SingularMatrix report while the
    // healthy instances in the same batch complete.
    Netlist singular;
    int a = singular.addNode("a");
    int b = singular.addNode("b");
    singular.resistor("R", a, b, 1.0);

    MappedTln good = sharedStructureLine(7);
    std::vector<const Netlist *> netlists{&good.netlist, &singular,
                                          &good.netlist};
    std::vector<TransientResult> results =
        TransientBatch().run(netlists, 0.0, 1e-8, 1e-11);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[2].ok());
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].failure->reason,
              TransientAbort::SingularMatrix);
    EXPECT_FALSE(results[1].failure->message.empty());
}

TEST_F(SpiceBatchTest, UnstableInstanceReportsNonfiniteState)
{
    // Negative-conductance VCCS on a capacitor: v grows by ~3999x per
    // trapezoidal step and overflows to inf mid-run. The failure must
    // be structured (reason, step, time) and the samples recorded
    // before the blowup kept.
    Netlist unstable;
    int n = unstable.addNode("n");
    unstable.capacitor("C", n, kGround, 1.0);
    unstable.vccs("G", kGround, n, n, kGround, 1999.0);
    unstable.currentSource("I", kGround, n, 1.0);

    MappedTln good = sharedStructureLine(11);
    std::vector<const Netlist *> netlists{&unstable, &good.netlist};
    std::vector<TransientResult> results =
        TransientBatch().run(netlists, 0.0, 0.2, 1e-3);
    ASSERT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].failure->reason,
              TransientAbort::NonfiniteState);
    EXPECT_GT(results[0].failure->step, 0u);
    EXPECT_GT(results[0].failure->time, 0.0);
    EXPECT_GE(results[0].size(), 1u);
    EXPECT_TRUE(results[1].ok());

    // The serial paths report the same structured failure.
    SparseMnaSystem sparse(unstable);
    TransientResult serial = transient(sparse, 0.0, 0.2, 1e-3);
    ASSERT_FALSE(serial.ok());
    EXPECT_EQ(serial.failure->reason, TransientAbort::NonfiniteState);
    EXPECT_EQ(serial.failure->step, results[0].failure->step);
    MnaSystem denseSys(unstable);
    TransientResult serialDense = transient(denseSys, 0.0, 0.2, 1e-3);
    ASSERT_FALSE(serialDense.ok());
    EXPECT_EQ(serialDense.failure->reason,
              TransientAbort::NonfiniteState);
    EXPECT_EQ(serialDense.failure->step, results[0].failure->step);
}

TEST_F(SpiceBatchTest, ShortFinalStepMatchesDense)
{
    // A window that is not an integer multiple of dt exercises the
    // fractional-final-step path (one-off companion at h < dt) on
    // both engines; they must still agree to rounding and land the
    // final sample on t1.
    MappedTln mapped = sharedStructureLine(3);
    const double dt = 1e-11;
    const double t1 = 10.5 * dt;
    MnaSystem dense(mapped.netlist);
    SparseMnaSystem sparse(mapped.netlist);
    TransientResult viaDense = transient(dense, 0.0, t1, dt);
    TransientResult viaSparse = transient(sparse, 0.0, t1, dt);
    ASSERT_TRUE(viaDense.ok());
    ASSERT_TRUE(viaSparse.ok());
    ASSERT_EQ(viaDense.size(), 12u); // initial + 10 full + 1 half step
    ASSERT_EQ(viaSparse.size(), viaDense.size());
    EXPECT_DOUBLE_EQ(viaDense.time(viaDense.size() - 1), t1);
    EXPECT_LE(maxRelDeviation(viaDense, viaSparse), 1e-12);

    // And through the batch engine.
    std::vector<const Netlist *> netlists{&mapped.netlist};
    std::vector<TransientResult> batched =
        TransientBatch().run(netlists, 0.0, t1, dt);
    ASSERT_TRUE(batched[0].ok());
    EXPECT_LE(maxRelDeviation(viaDense, batched[0]), 1e-12);
}

TEST_F(SpiceBatchTest, LeaderSharedFinalStepOperator)
{
    // Non-divisible grids end on one fractional step. The leader can
    // pre-factor that operator (prepareFinalStep) so the group shares
    // it like the main companion factors, instead of each instance
    // one-off-factoring it.
    const double dt = 1e-11;
    const double t1 = 10.5 * dt;
    const double hFinal = finalStepSize(0.0, t1, dt);
    EXPECT_GT(hFinal, 0.0);
    EXPECT_LT(hFinal, dt); // genuinely fractional on this grid

    // Prepared-vs-one-off bit identity on one instance: both factor
    // the identical final companion matrix, so the shared operator
    // must not change a single bit of the trajectory.
    MappedTln leader = sharedStructureLine(3);
    SparseMnaSystem system(leader.netlist);
    TransientStepper oneOff(system, dt);
    TransientStepper prepared(system, dt);
    prepared.prepareFinalStep(system, hFinal);
    EXPECT_EQ(prepared.preparedFinalStep(), hFinal);
    TransientResult viaOneOff = oneOff.run(system, 0.0, t1);
    TransientResult viaPrepared = prepared.run(system, 0.0, t1);
    ASSERT_TRUE(viaOneOff.ok());
    ASSERT_TRUE(viaPrepared.ok());
    expectBitIdentical(viaOneOff, viaPrepared);
    // A divisible-grid request clears the prepared operator.
    prepared.prepareFinalStep(system, dt);
    EXPECT_EQ(prepared.preparedFinalStep(), 0.0);

    // Through the batch engine: mismatch members ride the refactored
    // final operator, a value-identical duplicate shares the leader's
    // factors outright; each must match its serial sparse transient
    // to rounding and land its last sample exactly on t1.
    std::vector<MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        mapped.push_back(sharedStructureLine(seed));
    mapped.push_back(sharedStructureLine(1)); // value-identical twin
    std::vector<const Netlist *> netlists;
    for (const MappedTln &map : mapped)
        netlists.push_back(&map.netlist);
    std::vector<TransientResult> batched =
        TransientBatch().run(netlists, 0.0, t1, dt);
    ASSERT_EQ(batched.size(), netlists.size());
    for (std::size_t i = 0; i < netlists.size(); ++i) {
        ASSERT_TRUE(batched[i].ok()) << "instance " << i;
        EXPECT_DOUBLE_EQ(batched[i].time(batched[i].size() - 1), t1);
        SparseMnaSystem serial(*netlists[i]);
        TransientResult reference = transient(serial, 0.0, t1, dt);
        EXPECT_LE(maxRelDeviation(reference, batched[i]), 1e-12)
            << "instance " << i;
    }
    // The duplicate pair shares every factor, final step included.
    expectBitIdentical(batched[0], batched[4]);
}

/**
 * One-node cell: C = 1, R = 1 and a 1 A source, plus a VCCS of `gain`
 * driven by the node's own voltage. Its trapezoidal companion at step
 * h is 2/h + 1 - gain, so every gain gives the same structure.
 */
Netlist
selfControlledCell(double gain)
{
    Netlist cell;
    int n = cell.addNode("n");
    cell.capacitor("C", n, kGround, 1.0);
    cell.resistor("R", n, kGround, 1.0);
    cell.vccs("G", kGround, n, n, kGround, gain);
    cell.currentSource("I", kGround, n, 1.0);
    return cell;
}

TEST_F(SpiceBatchTest, MemberFactorsAloneWhenLeaderIsSingular)
{
    // The leader's gain cancels its companion matrix exactly at dt,
    // so the group has no shared operator and the member factors on
    // its own; t1 ends the grid on a fractional step. The member must
    // come out bit for bit as if swept alone, with and without a
    // stepper cache.
    const double dt = 1e-3, t1 = 5.5e-3;
    Netlist leader = selfControlledCell(2.0 / dt + 1.0);
    Netlist member = selfControlledCell(0.5);
    const std::vector<const Netlist *> group{&leader, &member};

    TransientBatchStats stats;
    std::vector<TransientResult> uncached =
        TransientBatch().run(group, 0.0, t1, dt, &stats);
    EXPECT_EQ(stats.structureGroups, 1u);
    std::vector<TransientResult> alone = TransientBatch().run(
        std::vector<const Netlist *>{&member}, 0.0, t1, dt);
    ASSERT_TRUE(alone[0].ok());

    engine::ArtifactCache cache;
    engine::Session session(
        engine::SessionOptions{.caching = true, .cache = &cache});
    engine::SweepStats cachedStats;
    std::vector<TransientResult> cached = session.runSweep(
        group, 0.0, t1, dt, TransientBatchOptions{}, &cachedStats);

    for (const std::vector<TransientResult> *results :
         {&uncached, &cached}) {
        ASSERT_EQ(results->size(), 2u);
        ASSERT_FALSE((*results)[0].ok());
        EXPECT_EQ((*results)[0].failure->reason,
                  TransientAbort::SingularMatrix);
        ASSERT_TRUE((*results)[1].ok());
        expectBitIdentical((*results)[1], alone[0]);
    }
    // The leader's failed builds store and count nothing; the one
    // miss is the member's own standalone operator.
    EXPECT_EQ(cachedStats.factorHits, 0u);
    EXPECT_EQ(cachedStats.factorMisses, 1u);
    EXPECT_EQ(cache.stats().steppersCached, 1u);
}

/** The unknowns of IN_V and OUT_V in a mapped line, ascending. */
std::vector<std::size_t>
inAndOut(const MappedTln &mapped)
{
    std::vector<std::size_t> unknowns{
        static_cast<std::size_t>(mapped.circuitNodeOf.at("IN_V")),
        static_cast<std::size_t>(
            mapped.circuitNodeOf.at(ptln::outputNode()))};
    std::sort(unknowns.begin(), unknowns.end());
    return unknowns;
}

/** `saved` stores `columns` of `full`: the same samples, bit for bit,
 *  and every other unknown throws. */
void
expectSavedUnknowns(const TransientResult &saved,
                    const TransientResult &full,
                    const std::vector<std::size_t> &columns)
{
    ASSERT_TRUE(saved.ok());
    ASSERT_EQ(saved.columns(), columns);
    ASSERT_EQ(saved.dim(), columns.size());
    ASSERT_EQ(saved.times(), full.times());
    for (std::size_t unknown = 0; unknown < full.dim(); ++unknown) {
        if (!std::binary_search(columns.begin(), columns.end(), unknown)) {
            EXPECT_THROW(saved.series(unknown), SimError);
            continue;
        }
        std::vector<double> a = saved.series(unknown);
        std::vector<double> b = full.series(unknown);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t s = 0; s < a.size(); ++s)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a[s]),
                      std::bit_cast<std::uint64_t>(b[s]))
                << "unknown " << unknown << " sample " << s;
    }
}

TEST_F(SpiceBatchTest, SavedSweepMatchesTheFullSweep)
{
    // A mixed sweep (a shared-structure group with a value-identical
    // twin, plus singletons, ending on a fractional step) saving
    // OUT_V and IN_V, listed out of order: each result stores those
    // two unknowns, bit for bit as the full sweep has them, with and
    // without a stepper cache, cold and warm.
    std::vector<MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        mapped.push_back(sharedStructureLine(seed));
    mapped.push_back(sharedStructureLine(1)); // value-identical twin
    for (std::uint64_t seed = 5; seed <= 6; ++seed)
        mapped.push_back(randomLine(seed));
    std::vector<const Netlist *> netlists;
    for (const MappedTln &map : mapped)
        netlists.push_back(&map.netlist);

    const double dt = 1e-11, t1 = 400.5 * dt;
    std::vector<TransientResult> full =
        TransientBatch().run(netlists, 0.0, t1, dt);
    TransientBatchOptions options;
    options.save = {ptln::outputNode(), "IN_V"};
    engine::ArtifactCache cache;
    engine::Session session(
        engine::SessionOptions{.caching = true, .cache = &cache});
    engine::SweepStats warmStats;
    const std::vector<TransientResult> sweeps[] = {
        TransientBatch(options).run(netlists, 0.0, t1, dt),
        session.runSweep(netlists, 0.0, t1, dt, options),
        session.runSweep(netlists, 0.0, t1, dt, options, &warmStats)};
    EXPECT_GT(warmStats.factorHits, 0u);
    for (const std::vector<TransientResult> &saved : sweeps) {
        ASSERT_EQ(saved.size(), netlists.size());
        for (std::size_t i = 0; i < netlists.size(); ++i) {
            ASSERT_TRUE(full[i].ok()) << "instance " << i;
            expectSavedUnknowns(saved[i], full[i], inAndOut(mapped[i]));
        }
    }
}

TEST_F(SpiceBatchTest, NetlistWithoutASavedNodeFailsAlone)
{
    // The middle netlist has no OUT_V: it fails alone with BadInput,
    // with and without a stepper cache, while its neighbors store
    // their OUT_V column.
    MappedTln a = sharedStructureLine(1);
    MappedTln b = sharedStructureLine(2);
    Netlist cell = selfControlledCell(0.5);
    std::vector<const Netlist *> netlists{&a.netlist, &cell, &b.netlist};
    const double dt = 1e-11, t1 = 200 * dt;
    TransientBatchOptions options;
    options.save = {ptln::outputNode()};
    engine::Session session(engine::SessionOptions{.caching = true});
    const std::vector<TransientResult> sweeps[] = {
        TransientBatch(options).run(netlists, 0.0, t1, dt),
        session.runSweep(netlists, 0.0, t1, dt, options)};
    for (const std::vector<TransientResult> &results : sweeps) {
        ASSERT_EQ(results.size(), 3u);
        ASSERT_FALSE(results[1].ok());
        EXPECT_EQ(results[1].failure->reason, TransientAbort::BadInput);
        EXPECT_EQ(results[1].size(), 0u);
        for (std::size_t i : {0u, 2u}) {
            const MappedTln &map = i == 0 ? a : b;
            TransientResult full =
                TransientBatch()
                    .run(std::vector<const Netlist *>{&map.netlist}, 0.0,
                         t1, dt)
                    .front();
            expectSavedUnknowns(
                results[i], full,
                {static_cast<std::size_t>(
                    map.circuitNodeOf.at(ptln::outputNode()))});
        }
    }
}

TEST_F(SpiceBatchTest, BatchLevelBadArgumentsThrow)
{
    MappedTln mapped = sharedStructureLine(1);
    std::vector<const Netlist *> netlists{&mapped.netlist};
    TransientBatch batch;
    EXPECT_THROW(batch.run(netlists, 0.0, 1e-8, 0.0), SimError);
    EXPECT_THROW(batch.run(netlists, 0.0, 1e-8, -1e-11), SimError);
    EXPECT_THROW(batch.run(netlists, 1e-8, 0.0, 1e-11), SimError);
    // Zero-length window: valid, one initial sample per instance.
    std::vector<TransientResult> point =
        batch.run(netlists, 0.0, 0.0, 1e-11);
    ASSERT_TRUE(point[0].ok());
    EXPECT_EQ(point[0].size(), 1u);
    // Empty batches are a no-op.
    EXPECT_TRUE(batch.run(std::vector<const Netlist *>{}, 0.0, 1e-8,
                          1e-11)
                    .empty());
}

TEST_F(SpiceBatchTest, ValidationSweepMapsEveryTrialUnderOnePercent)
{
    // Acceptance criterion at regression scale: every trial of the
    // batched §4.5 sweep maps to a netlist and tracks the Ark dynamics
    // within 1% RMSE. Per-netlist agreement with the serial dense
    // transient is checked by SparseTransientMatchesDenseOnRandomTln.
    const lang::Language &gmc = registry_->language("gmc-tln");
    apps::experiments::SpiceValidation report =
        apps::experiments::runSpiceValidation(gmc, 12, 1);
    EXPECT_EQ(report.total, 12);
    EXPECT_EQ(report.mapped, report.total);
    EXPECT_EQ(report.under1pct, report.total);
    EXPECT_GT(report.spiceGroups, 0);
    EXPECT_LE(report.spiceGroups, report.total);
    EXPECT_LT(report.maxRmse, 0.01);
}

TEST_F(SpiceBatchTest, ValidationSweepIndependentOfThreadCount)
{
    // The sweep's front end (draw, build, compile, map) and both batch
    // sides run at SpiceValidationOptions::numThreads; from a cold
    // cache, one thread and three report the same statistics, bit for
    // bit.
    const lang::Language &gmc = registry_->language("gmc-tln");
    apps::experiments::SpiceValidationOptions one;
    one.numThreads = 1;
    apps::experiments::SpiceValidationOptions three;
    three.numThreads = 3;
    engine::ArtifactCache::shared().clear();
    apps::experiments::SpiceValidation serial =
        apps::experiments::runSpiceValidation(gmc, 12, 1, one);
    engine::ArtifactCache::shared().clear();
    apps::experiments::SpiceValidation parallel =
        apps::experiments::runSpiceValidation(gmc, 12, 1, three);
    EXPECT_EQ(serial.total, parallel.total);
    EXPECT_EQ(serial.mapped, parallel.mapped);
    EXPECT_EQ(serial.mapped, serial.total);
    EXPECT_EQ(serial.under1pct, parallel.under1pct);
    EXPECT_EQ(serial.spiceGroups, parallel.spiceGroups);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.meanRmse),
              std::bit_cast<std::uint64_t>(parallel.meanRmse));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.maxRmse),
              std::bit_cast<std::uint64_t>(parallel.maxRmse));
}

} // namespace
