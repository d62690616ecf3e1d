/**
 * @file
 * Tests for the content-addressed compiled-artifact engine:
 * fingerprint lane semantics, expression fingerprints that follow
 * interning, the hash-equality => program-equality
 * property on random TLN/OBC/CNN graphs, ArtifactCache hit/miss/
 * eviction accounting, bit-identity of cached-vs-cold ensembles at
 * several thread counts, and the cache-backed SPICE sweep against
 * spice::TransientBatch (bitwise parity + warm-factor reuse).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numbers>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "apps/puf.h"
#include "compiler/compiler.h"
#include "engine/cache.h"
#include "engine/fingerprint.h"
#include "engine/session.h"
#include "lang/func.h"
#include "lang/registry.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "sim/batch.h"
#include "spice/batch.h"
#include "spice/map_tln.h"
#include "spice/mna.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "validator/validator.h"

namespace {

using namespace ark;
namespace ptln = paradigms::tln;

class EngineTest : public ::testing::Test
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

    static const lang::Language &lang(const char *name)
    {
        return registry_->language(name);
    }

    static lang::LanguageRegistry *registry_;
};

lang::LanguageRegistry *EngineTest::registry_ = nullptr;

/** Bit-exact double comparison (NaN-safe, -0.0 != 0.0). */
bool
sameBits(double x, double y)
{
    return std::bit_cast<std::uint64_t>(x) ==
           std::bit_cast<std::uint64_t>(y);
}

/** Full program equality: vars, initial state, and the fused tape. */
::testing::AssertionResult
samePrograms(const compiler::OdeSystem &a, const compiler::OdeSystem &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "state dim differs";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.vars()[i].node != b.vars()[i].node ||
            a.vars()[i].derivative != b.vars()[i].derivative)
            return ::testing::AssertionFailure()
                   << "state var " << i << " differs";
        if (!sameBits(a.initialState()[i], b.initialState()[i]))
            return ::testing::AssertionFailure()
                   << "initial state " << i << " differs";
    }
    const auto &ta = a.fusedTape().ops();
    const auto &tb = b.fusedTape().ops();
    if (ta.size() != tb.size())
        return ::testing::AssertionFailure() << "tape length differs";
    for (std::size_t i = 0; i < ta.size(); ++i) {
        if (ta[i].op != tb[i].op || ta[i].builtin != tb[i].builtin ||
            ta[i].dst != tb[i].dst || ta[i].a != tb[i].a ||
            ta[i].b != tb[i].b || ta[i].c != tb[i].c ||
            !sameBits(ta[i].imm, tb[i].imm))
            return ::testing::AssertionFailure() << "op " << i << " differs";
    }
    return ::testing::AssertionSuccess();
}

TEST(FingerprintTest, PointerEqualityImpliesFingerprintEquality)
{
    // engine::Hasher absorbs the interned digest, so two separately
    // built (hence pointer-equal) trees must fingerprint identically,
    // and structurally distinct trees must not.
    using expr::BinOp;
    using expr::Expr;
    expr::ExprPtr a = Expr::binary(
        BinOp::Div,
        Expr::binary(BinOp::Mul, Expr::real(0.75), Expr::stateVar(2)),
        Expr::real(3e-9));
    expr::ExprPtr b = Expr::binary(
        BinOp::Div,
        Expr::binary(BinOp::Mul, Expr::real(0.75), Expr::stateVar(2)),
        Expr::real(3e-9));
    ASSERT_EQ(a.get(), b.get());
    engine::Hasher ha, hb, hc;
    ha.absorb(*a);
    hb.absorb(*b);
    EXPECT_EQ(ha.finish(), hb.finish());
    expr::ExprPtr c = Expr::binary(
        BinOp::Div,
        Expr::binary(BinOp::Mul, Expr::real(0.75), Expr::stateVar(2)),
        Expr::real(3.0000001e-9));
    hc.absorb(*c);
    EXPECT_FALSE(ha.finish() == hc.finish());
}

TEST_F(EngineTest, FingerprintIsDeterministicAcrossRebuilds)
{
    ptln::LineSpec spec;
    spec.sections = 5;
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = 42;
    const lang::Language &gmc = lang("gmc-tln");
    dg::Graph a = ptln::buildLine(gmc, spec);
    dg::Graph b = ptln::buildLine(gmc, spec);
    engine::GraphFingerprint fa = engine::fingerprintGraph(a, gmc);
    engine::GraphFingerprint fb = engine::fingerprintGraph(b, gmc);
    EXPECT_EQ(fa.structure, fb.structure);
    EXPECT_EQ(fa.values, fb.values);
    EXPECT_EQ(fa.combined, fb.combined);
    EXPECT_EQ(fa.combined.str(), fb.combined.str());
    EXPECT_EQ(fa.combined.str().size(), 32u);
}

TEST_F(EngineTest, ConstantLaneSplitsOutMismatchValues)
{
    // Two fabricated chips of one PUF challenge differ only in
    // sampled mismatch constants: equal structure lane (they
    // lane-batch), different values lane. A different challenge flips
    // switch states: different structure lane.
    apps::PufDesign design;
    design.mainSections = 6;
    design.numBranches = 2;
    design.stubSections = 2;
    const lang::Language &gmc = lang("gmc-tln");
    apps::TlnPuf puf(gmc, design);
    engine::GraphFingerprint chip1 =
        engine::fingerprintGraph(puf.buildGraph(1, 7), gmc);
    engine::GraphFingerprint chip2 =
        engine::fingerprintGraph(puf.buildGraph(1, 8), gmc);
    engine::GraphFingerprint other =
        engine::fingerprintGraph(puf.buildGraph(2, 7), gmc);

    EXPECT_EQ(chip1.structure, chip2.structure);
    EXPECT_NE(chip1.values, chip2.values);
    EXPECT_NE(chip1.combined, chip2.combined);
    EXPECT_NE(chip1.structure, other.structure);
}

TEST_F(EngineTest, ValuePerturbationChangesOnlyValueLane)
{
    ptln::LineSpec spec;
    spec.sections = 4;
    const lang::Language &tln = lang("tln");
    engine::GraphFingerprint base =
        engine::fingerprintGraph(ptln::buildLine(tln, spec), tln);
    spec.capacitance = 1.0000000000000002e-9; // one ulp-ish nudge
    engine::GraphFingerprint nudged =
        engine::fingerprintGraph(ptln::buildLine(tln, spec), tln);
    EXPECT_EQ(base.structure, nudged.structure);
    EXPECT_NE(base.values, nudged.values);
    EXPECT_NE(base.combined, nudged.combined);
}

TEST_F(EngineTest, LanguageContentIsPartOfTheAddress)
{
    // Two registries each define a language named "probe" extending
    // tln — once with a production-rule coefficient of 2, once with
    // 3. The same graph content written in either must address
    // different artifacts (the process-wide cache would otherwise
    // serve one language's compiled dynamics for the other), while
    // content-equal languages from different registries hash alike.
    auto probeFingerprint = [](const std::string &coeff) {
        lang::LanguageRegistry registry =
            paradigms::makeStandardRegistry();
        registry.addProgram(
            "lang probe inherits tln {\n    etyp Eprobe {};\n"
            "    prod(e:Eprobe,s:V->t:I) t <= " +
            coeff + "*var(s)/t.l;\n}\n");
        const lang::Language &probe = registry.language("probe");
        lang::GraphBuilder builder(probe, 0);
        builder.node("a", "V");
        builder.attr("a", "c", 1e-9);
        builder.attr("a", "g", 0.0);
        builder.edge("self_a", "E", "a", "a");
        dg::Graph graph = builder.take();
        return engine::fingerprintGraph(graph, probe);
    };
    engine::GraphFingerprint twoA = probeFingerprint("2");
    engine::GraphFingerprint twoB = probeFingerprint("2");
    engine::GraphFingerprint three = probeFingerprint("3");
    EXPECT_EQ(twoA.combined, twoB.combined);
    EXPECT_NE(twoA.structure, three.structure);
    EXPECT_NE(twoA.combined, three.combined);
}

/**
 * The cache-key contract: equal combined fingerprints => bit-identical
 * compiled programs. Random graphs drawn from deliberately small
 * discrete parameter spaces so the draw repeats content (real
 * collisions, not just self-comparison).
 */
TEST_F(EngineTest, HashEqualityImpliesProgramEquality)
{
    struct Sample
    {
        engine::Fingerprint fp;
        compiler::OdeSystem system;
    };
    std::vector<Sample> samples;
    support::Rng rng(123);

    const lang::Language &tln = lang("tln");
    const lang::Language &obc = lang("obc");
    const lang::Language &cnn = lang("cnn");
    for (int draw = 0; draw < 25; ++draw) {
        ptln::LineSpec spec;
        spec.sections = static_cast<int>(rng.uniformInt(3, 4));
        spec.inductance = rng.bernoulli(0.5) ? 1e-9 : 2e-9;
        spec.capacitance = rng.bernoulli(0.5) ? 1e-9 : 1.5e-9;
        dg::Graph graph = ptln::buildLine(tln, spec);
        samples.push_back(
            {engine::fingerprintGraph(graph, tln).combined,
             compiler::compile(graph, tln)});
    }
    for (int draw = 0; draw < 25; ++draw) {
        paradigms::obc::MaxcutInstance instance;
        instance.numVertices = 3;
        for (int a = 0; a < 3; ++a)
            for (int b = a + 1; b < 3; ++b)
                if (rng.bernoulli(0.5))
                    instance.edges.emplace_back(a, b);
        paradigms::obc::MaxcutSpec spec;
        for (int v = 0; v < 3; ++v)
            spec.initPhases.push_back(
                rng.bernoulli(0.5) ? 0.0 : std::numbers::pi / 2);
        dg::Graph graph =
            paradigms::obc::buildMaxcut(obc, instance, spec);
        samples.push_back(
            {engine::fingerprintGraph(graph, obc).combined,
             compiler::compile(graph, obc)});
    }
    for (int draw = 0; draw < 10; ++draw) {
        paradigms::cnn::CnnSpec spec;
        spec.width = 3;
        spec.height = 3;
        std::vector<double> input(9, 1.0);
        input[static_cast<std::size_t>(rng.uniformInt(0, 2))] = -1.0;
        dg::Graph graph = paradigms::cnn::buildCnn(cnn, spec, input);
        samples.push_back(
            {engine::fingerprintGraph(graph, cnn).combined,
             compiler::compile(graph, cnn)});
    }

    int collisions = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        for (std::size_t j = i + 1; j < samples.size(); ++j) {
            if (!(samples[i].fp == samples[j].fp))
                continue;
            ++collisions;
            EXPECT_TRUE(
                samePrograms(samples[i].system, samples[j].system))
                << "samples " << i << " and " << j;
        }
    }
    // The discrete parameter spaces are small enough that repeats are
    // certain; without them the property above would be vacuous.
    EXPECT_GT(collisions, 0);
}

TEST_F(EngineTest, CacheAccountsHitsMissesEvictions)
{
    engine::CacheConfig config;
    config.maxSystems = 2;
    engine::ArtifactCache cache(config);
    const lang::Language &tln = lang("tln");

    auto graphOf = [&](int sections) {
        ptln::LineSpec spec;
        spec.sections = sections;
        return ptln::buildLine(tln, spec);
    };

    engine::SystemPtr a1 = cache.system(graphOf(3), tln); // miss
    engine::SystemPtr a2 = cache.system(graphOf(3), tln); // hit
    EXPECT_EQ(a1.get(), a2.get()); // same shared artifact, not a copy
    cache.system(graphOf(4), tln);                        // miss
    cache.system(graphOf(5), tln); // miss, evicts sections=3 (LRU)
    cache.system(graphOf(3), tln); // miss again after eviction

    engine::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.systemHits, 1u);
    EXPECT_EQ(stats.systemMisses, 4u);
    EXPECT_EQ(stats.systemEvictions, 2u);
    EXPECT_EQ(stats.systemsCached, 2u);

    cache.clear();
    stats = cache.stats();
    EXPECT_EQ(stats.systemsCached, 0u);
    EXPECT_EQ(stats.systemMisses, 4u); // counters keep accumulating
}

TEST_F(EngineTest, StepperCacheServesWarmFactorsByContent)
{
    engine::CacheConfig config;
    config.maxSteppers = 2;
    engine::ArtifactCache cache(config);

    ptln::LineSpec spec;
    spec.sections = 3;
    const lang::Language &tln = lang("tln");
    dg::Graph graph = ptln::buildLine(tln, spec);
    validator::validateOrThrow(graph, tln);
    spice::MappedTln mapped = spice::mapTlnToSpice(graph, tln);
    spice::SparseMnaSystem system(mapped.netlist);
    engine::MnaFingerprint fp = engine::fingerprintMna(system);

    int builds = 0;
    auto build = [&]() {
        ++builds;
        return std::make_shared<spice::TransientStepper>(system, 1e-11);
    };
    engine::Fingerprint key =
        engine::stepperKey(fp, fp.values, fp.values, 1e-11, 0.0);
    bool hit = true;
    engine::StepperPtr first = cache.stepper(key, build, &hit);
    EXPECT_FALSE(hit);
    engine::StepperPtr again = cache.stepper(key, build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.get(), again.get());
    EXPECT_EQ(builds, 1);

    // A different step size is a different artifact.
    engine::Fingerprint otherKey =
        engine::stepperKey(fp, fp.values, fp.values, 2e-11, 0.0);
    cache.stepper(otherKey, [&]() {
        ++builds;
        return std::make_shared<spice::TransientStepper>(system, 2e-11);
    });
    EXPECT_EQ(builds, 2);
    engine::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.stepperHits, 1u);
    EXPECT_EQ(stats.stepperMisses, 2u);
    EXPECT_EQ(stats.steppersCached, 2u);
}

/** PUF battery: cached, cached-again, and cold compiles must produce
 *  bit-identical ensembles at every thread count. */
TEST_F(EngineTest, CachedVsColdEnsemblesBitIdentical)
{
    apps::PufDesign design;
    design.mainSections = 6;
    design.numBranches = 2;
    design.stubSections = 2;
    const lang::Language &gmc = lang("gmc-tln");
    apps::TlnPuf puf(gmc, design);

    engine::ArtifactCache cache;
    engine::Session cached(
        engine::SessionOptions{.caching = true, .cache = &cache});
    engine::Session cold(engine::SessionOptions{.caching = false});

    auto compileBattery = [&](const engine::Session &session) {
        std::vector<engine::SystemPtr> systems;
        for (std::uint64_t seed = 1; seed <= 5; ++seed)
            systems.push_back(
                session.compile(puf.buildGraph(1, seed), gmc));
        return systems;
    };
    std::vector<engine::SystemPtr> warmMiss = compileBattery(cached);
    std::vector<engine::SystemPtr> warmHit = compileBattery(cached);
    std::vector<engine::SystemPtr> coldBuilt = compileBattery(cold);
    EXPECT_EQ(cache.stats().systemHits, 5u);
    EXPECT_EQ(cache.stats().systemMisses, 5u);
    for (std::size_t i = 0; i < warmMiss.size(); ++i) {
        EXPECT_EQ(warmMiss[i].get(), warmHit[i].get());
        EXPECT_TRUE(samePrograms(*warmMiss[i], *coldBuilt[i]));
    }

    std::vector<std::vector<sim::SimResult>> runs;
    for (unsigned threads : {1u, 2u, 4u}) {
        for (const auto &systems : {warmHit, coldBuilt}) {
            sim::EnsembleOptions options;
            options.sim.method = sim::Method::Rk4;
            options.sim.dt = design.windowEnd / 400.0;
            options.sim.recordDt = design.windowEnd / 400.0;
            options.numThreads = threads;
            runs.push_back(cached.runEnsemble(
                systems, 0.0, design.windowEnd, options));
        }
    }
    const std::vector<sim::SimResult> &reference = runs.front();
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const sim::Trajectory &ta = reference[i].trajectory;
            const sim::Trajectory &tb = runs[r][i].trajectory;
            ASSERT_EQ(ta.size(), tb.size()) << "run " << r;
            for (std::size_t s = 0; s < ta.size(); ++s) {
                ASSERT_TRUE(sameBits(ta.time(s), tb.time(s)));
                auto sa = ta.state(s);
                auto sb = tb.state(s);
                for (std::size_t k = 0; k < sa.size(); ++k)
                    ASSERT_TRUE(sameBits(sa[k], sb[k]))
                        << "run " << r << " instance " << i;
            }
        }
    }
}

/** Random mismatched GmC line mapped to a netlist (spice_batch idiom). */
spice::MappedTln
randomLine(const lang::Language &gmc, std::uint64_t seed)
{
    support::Rng rng(seed * 7919 + 13);
    ptln::LineSpec spec;
    spec.sections = static_cast<int>(rng.uniformInt(2, 5));
    spec.inductance = rng.uniform(0.5e-9, 2e-9);
    spec.capacitance = rng.uniform(0.5e-9, 2e-9);
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = rng.deriveSeed();
    dg::Graph graph = ptln::buildLine(gmc, spec);
    validator::validateOrThrow(graph, gmc);
    return spice::mapTlnToSpice(graph, gmc);
}

/** Same topology for every seed: only the mismatch values vary. */
spice::MappedTln
sharedStructureLine(const lang::Language &gmc, std::uint64_t seed)
{
    ptln::LineSpec spec;
    spec.sections = 4;
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = seed;
    dg::Graph graph = ptln::buildLine(gmc, spec);
    validator::validateOrThrow(graph, gmc);
    return spice::mapTlnToSpice(graph, gmc);
}

::testing::AssertionResult
sameTransients(const std::vector<spice::TransientResult> &a,
               const std::vector<spice::TransientResult> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "result count differs";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].ok() != b[i].ok())
            return ::testing::AssertionFailure()
                   << "instance " << i << " ok() differs";
        if (!a[i].ok() &&
            (a[i].failure->reason != b[i].failure->reason ||
             a[i].failure->message != b[i].failure->message))
            return ::testing::AssertionFailure()
                   << "instance " << i << " failure differs";
        if (a[i].size() != b[i].size() || a[i].dim() != b[i].dim())
            return ::testing::AssertionFailure()
                   << "instance " << i << " shape differs";
        for (std::size_t s = 0; s < a[i].size(); ++s) {
            if (!sameBits(a[i].time(s), b[i].time(s)))
                return ::testing::AssertionFailure()
                       << "instance " << i << " time " << s;
            auto sa = a[i].state(s);
            auto sb = b[i].state(s);
            for (std::size_t k = 0; k < sa.size(); ++k)
                if (!sameBits(sa[k], sb[k]))
                    return ::testing::AssertionFailure()
                           << "instance " << i << " sample " << s
                           << " unknown " << k;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST_F(EngineTest, CachedSweepMatchesTransientBatchAndReusesFactors)
{
    const lang::Language &gmc = lang("gmc-tln");
    // 4 shared-structure instances (one leader + refactored members,
    // incl. a bit-identical duplicate sharing factors outright) plus
    // 4 random-topology singletons; a non-divisible range exercises
    // the prepared final-step operator, and a floating resistor pair
    // (singular conductance matrix) pins the structured-failure
    // mapping to TransientBatch's.
    std::vector<spice::MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        mapped.push_back(sharedStructureLine(gmc, seed));
    mapped.push_back(sharedStructureLine(gmc, 1)); // value-identical
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        mapped.push_back(randomLine(gmc, seed));
    spice::Netlist singular;
    int na = singular.addNode("a");
    int nb = singular.addNode("b");
    singular.resistor("R", na, nb, 1.0);
    std::vector<const spice::Netlist *> netlists;
    for (const spice::MappedTln &m : mapped)
        netlists.push_back(&m.netlist);
    netlists.push_back(&singular);

    const double t0 = 0.0, t1 = 1.05e-9, dt = 1e-11;

    spice::TransientBatchOptions batchOptions;
    spice::TransientBatchStats batchStats;
    std::vector<spice::TransientResult> reference =
        spice::TransientBatch(batchOptions).run(netlists, t0, t1, dt,
                                                &batchStats);

    engine::ArtifactCache cache;
    engine::Session session(
        engine::SessionOptions{.caching = true, .cache = &cache});
    engine::SweepStats coldStats;
    std::vector<spice::TransientResult> coldSweep = session.runSweep(
        netlists, t0, t1, dt, batchOptions, &coldStats);
    EXPECT_TRUE(sameTransients(coldSweep, reference));
    EXPECT_EQ(coldStats.structureGroups, batchStats.structureGroups);
    EXPECT_EQ(coldStats.factorHits, 0u);
    // One build per distinct (pivot source, values): 5 structure
    // groups + 2 rebound members; the value-identical duplicate
    // shares the leader's factors without a cache transaction.
    EXPECT_EQ(coldStats.factorMisses, 7u);

    engine::SweepStats warmStats;
    std::vector<spice::TransientResult> warmSweep = session.runSweep(
        netlists, t0, t1, dt, batchOptions, &warmStats);
    EXPECT_TRUE(sameTransients(warmSweep, reference));
    EXPECT_EQ(warmStats.factorMisses, 0u);
    EXPECT_EQ(warmStats.factorHits, 7u);

    // Thread-count invariance on the warm path.
    spice::TransientBatchOptions fourThreads;
    fourThreads.numThreads = 4;
    std::vector<spice::TransientResult> threaded =
        session.runSweep(netlists, t0, t1, dt, fourThreads, nullptr);
    EXPECT_TRUE(sameTransients(threaded, reference));

    // caching=false delegates to TransientBatch outright.
    engine::Session uncached(
        engine::SessionOptions{.caching = false});
    engine::SweepStats uncachedStats;
    std::vector<spice::TransientResult> ablation = uncached.runSweep(
        netlists, t0, t1, dt, batchOptions, &uncachedStats);
    EXPECT_TRUE(sameTransients(ablation, reference));
    EXPECT_EQ(uncachedStats.factorHits, 0u);
    EXPECT_EQ(uncachedStats.factorMisses, 0u);
}

TEST_F(EngineTest, SweepValidatesBatchConfiguration)
{
    const lang::Language &gmc = lang("gmc-tln");
    spice::MappedTln mapped = sharedStructureLine(gmc, 1);
    std::vector<const spice::Netlist *> netlists{&mapped.netlist};
    engine::Session session;
    EXPECT_THROW(session.runSweep(netlists, 0.0, 1e-9, 0.0),
                 support::SimError);
    EXPECT_THROW(session.runSweep(netlists, 1e-9, 0.0, 1e-11),
                 support::SimError);
    EXPECT_TRUE(session.runSweep({}, 0.0, 1e-9, 1e-11).empty());
}

TEST_F(EngineTest, ResponseMatrixMatchesPerChallengeBatches)
{
    apps::PufDesign design;
    design.mainSections = 6;
    design.numBranches = 2;
    design.stubSections = 2;
    design.responseBits = 16;
    const lang::Language &gmc = lang("gmc-tln");
    apps::TlnPuf puf(gmc, design);

    const std::vector<std::uint32_t> challenges{1, 3, 1, 2, 3};
    const std::vector<std::uint64_t> chips{1, 2, 3};

    auto matrix = puf.responseMatrix(challenges, chips);
    ASSERT_EQ(matrix.size(), challenges.size());
    for (std::size_t c = 0; c < challenges.size(); ++c) {
        auto loop = puf.responseBatch(challenges[c], chips);
        EXPECT_EQ(matrix[c], loop) << "challenge index " << c;
    }

    // Noisy battery: flattened challenge-major seeds must match the
    // per-challenge slices, and repeated challenges get independent
    // noise per occurrence.
    std::vector<std::uint64_t> noiseSeeds;
    for (std::size_t i = 0; i < challenges.size() * chips.size(); ++i)
        noiseSeeds.push_back(1000 + i);
    auto noisy =
        puf.responseMatrix(challenges, chips, 0.01, noiseSeeds);
    for (std::size_t c = 0; c < challenges.size(); ++c) {
        std::vector<std::uint64_t> slice(
            noiseSeeds.begin() +
                static_cast<std::ptrdiff_t>(c * chips.size()),
            noiseSeeds.begin() +
                static_cast<std::ptrdiff_t>((c + 1) * chips.size()));
        auto loop = puf.responseBatch(challenges[c], chips, 0.01, slice);
        EXPECT_EQ(noisy[c], loop) << "noisy challenge index " << c;
    }
    // Same challenge, same chips, different noise seeds: occurrences
    // 0 and 2 both measure challenge 1.
    EXPECT_NE(noisy[0], noisy[2]);
}

/**
 * Bitwise agreement of two programs over states where a wrongly bound
 * constant shows: every state variable runs through ±0, ±inf and NaN
 * beside ordinary values (x*0, x+0 and x*1 differ from their folds
 * exactly there).
 */
::testing::AssertionResult
sameOutputsOnEdgeStates(const expr::FusedTape &a, const expr::FusedTape &b,
                        std::size_t dim)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double palette[] = {0.0,  -0.0, inf,  -inf,
                              std::numeric_limits<double>::quiet_NaN(),
                              0.75, -1.5, 3e-9};
    constexpr std::size_t n = std::size(palette);
    for (std::size_t trial = 0; trial < n * n; ++trial) {
        std::vector<double> state(dim);
        for (std::size_t i = 0; i < dim; ++i)
            state[i] = palette[(trial + i * (trial / n + 1)) % n];
        for (double t : {0.0, 2.5e-9}) {
            std::vector<double> x = a.evalAlloc(state, t);
            std::vector<double> y = b.evalAlloc(state, t);
            for (std::size_t k = 0; k < x.size(); ++k)
                if (!sameBits(x[k], y[k]))
                    return ::testing::AssertionFailure()
                           << "output " << k << " differs on trial "
                           << trial << " at t=" << t << ": " << x[k]
                           << " vs " << y[k];
        }
    }
    return ::testing::AssertionSuccess();
}

TEST_F(EngineTest, BoundTemplatesMatchDirectCompileOnGuardedValues)
{
    // Each case compiles through a cache that already holds its
    // topology's template. A value the folder rewrites on (±0, ±1)
    // must come out exactly as a direct compile of the system's RHS
    // trees: raw attribute values of that class are structure (a new
    // template), a hoisted subtree that evaluates to one falls back.
    const bool metricsWere = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    telemetry::Counter &fallbacks =
        telemetry::Registry::shared().counter("ark.compile.bind_fallbacks");
    const std::uint64_t fallbacks0 = fallbacks.value();
    engine::ArtifactCache cache;
    engine::ArtifactCache *target = &cache;

    // The served program against a direct compile of its own RHS
    // trees, and against the RHS trees an uncached compile of the
    // graph builds (so a system served for another graph shows too).
    auto check = [&](const dg::Graph &graph, const lang::Language &language,
                     const char *what) {
        engine::SystemPtr system = target->system(graph, language);
        EXPECT_TRUE(sameOutputsOnEdgeStates(
            system->fusedTape(),
            expr::FusedTape::compile(system->rhsExprs()), system->size()))
            << what;
        EXPECT_TRUE(sameOutputsOnEdgeStates(
            system->fusedTape(),
            expr::FusedTape::compile(
                compiler::compile(graph, language).rhsExprs()),
            system->size()))
            << what << " (uncached)";
    };
    auto templateMisses = [&] { return cache.stats().templateMisses; };

    // ofs-obc: an offset of exactly +0.0 or -0.0 (x + offset folds).
    const lang::Language &ofs = lang("ofs-obc");
    paradigms::obc::MaxcutInstance square{4, {{0, 1}, {1, 2}, {2, 3},
                                              {0, 3}, {0, 2}}};
    auto ofsGraph = [&](std::uint64_t seed, std::optional<double> offset) {
        paradigms::obc::MaxcutSpec spec;
        spec.withOffset = true;
        spec.seed = seed;
        spec.initPhases = {0.1, 2.0, 4.0, 5.5};
        dg::Graph graph = paradigms::obc::buildMaxcut(ofs, square, spec);
        if (offset)
            graph.setEdgeAttr(*graph.findEdge("CPL_1"), "offset",
                              expr::Value::real(*offset));
        return graph;
    };
    check(ofsGraph(1, std::nullopt), ofs, "ofs-obc first instance");
    std::uint64_t misses = templateMisses();
    check(ofsGraph(2, std::nullopt), ofs, "ofs-obc ordinary offsets");
    EXPECT_EQ(templateMisses(), misses); // bound, not lowered
    check(ofsGraph(3, 0.0), ofs, "ofs-obc offset +0");
    check(ofsGraph(4, -0.0), ofs, "ofs-obc offset -0");
    EXPECT_EQ(templateMisses(), misses + 2);

    // obc: a coupling k of 1, -1 or 0 (x*k folds) beside ordinary ones.
    const lang::Language &obc = lang("obc");
    auto obcGraph = [&](double k) {
        paradigms::obc::MaxcutSpec spec;
        spec.coupling = -0.6;
        spec.initPhases = {0.3, 1.0, 3.0, 6.0};
        dg::Graph graph = paradigms::obc::buildMaxcut(obc, square, spec);
        graph.setEdgeAttr(*graph.findEdge("CPL_1"), "k",
                          expr::Value::real(0.45));
        graph.setEdgeAttr(*graph.findEdge("CPL_3"), "k",
                          expr::Value::real(k));
        return graph;
    };
    check(obcGraph(-1.3), obc, "obc first instance");
    misses = templateMisses();
    for (double k : {1.0, -1.0, 0.0})
        check(obcGraph(k), obc, "obc special coupling");
    EXPECT_EQ(templateMisses(), misses + 3);

    // gmc-tln: a termination g = 0 (the line's interior g = 0 terms
    // vanish) where the template's first instance had g = 0.3.
    const lang::Language &gmc = lang("gmc-tln");
    ptln::LineSpec line;
    line.sections = 3;
    line.mismatchC = true;
    line.mismatchGm = true;
    line.termConductance = 0.3;
    line.seed = 5;
    check(ptln::buildLine(gmc, line), gmc, "gmc-tln g = 0.3");
    misses = templateMisses();
    line.termConductance = 0.0;
    line.seed = 6;
    check(ptln::buildLine(gmc, line), gmc, "gmc-tln g = 0");
    EXPECT_EQ(templateMisses(), misses + 1);

    // A test-local language whose rule multiplies the hoisted
    // e.a - e.b by a state: drawn with a == b, the slot evaluates to
    // +0 and bind must fall back.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    registry.addProgram(
        "lang diffp {\n    ntyp(1,sum) X {attr c=real[-8,8]};\n"
        "    etyp Ed {attr a=real[-8,8], attr b=real[-8,8]};\n"
        "    prod(e:Ed,s:X->s:X) s <= (e.a-e.b)*var(s);\n"
        "    prod(e:Ed,s:X->t:X) t <= s.c*var(s);\n}\n");
    const lang::Language &diff = registry.language("diffp");
    auto diffGraph = [&](double a, double b) {
        lang::GraphBuilder builder(diff, 0);
        builder.node("x", "X");
        builder.attr("x", "c", 0.5);
        builder.node("y", "X");
        builder.attr("y", "c", 0.25);
        for (const char *name : {"self_x", "x_y"}) {
            builder.edge(name, "Ed", "x", name[0] == 's' ? "x" : "y");
            builder.attr(name, "a", a);
            builder.attr(name, "b", b);
        }
        return builder.take();
    };
    check(diffGraph(0.75, 0.5), diff, "diffp a != b");
    misses = templateMisses();
    check(diffGraph(0.625, 0.625), diff, "diffp a == b");
    EXPECT_EQ(templateMisses(), misses);

    // The reverse: a template lowered from a == b pins e.a - e.b to
    // +0, and a draw with a != b must not bind to it.
    engine::ArtifactCache pinned;
    target = &pinned;
    check(diffGraph(0.625, 0.625), diff, "diffp pinned a == b");
    check(diffGraph(0.75, 0.5), diff, "diffp a != b on the pin");
    EXPECT_EQ(pinned.stats().templateHits, 1u);

    EXPECT_EQ(fallbacks.value() - fallbacks0, 2u);
    telemetry::setMetricsEnabled(metricsWere);
}

/** Bitwise equality of two ensembles' trajectories. */
::testing::AssertionResult
sameEnsembles(const std::vector<sim::SimResult> &a,
              const std::vector<sim::SimResult> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "result count differs";
    for (std::size_t i = 0; i < a.size(); ++i) {
        const sim::Trajectory &ta = a[i].trajectory;
        const sim::Trajectory &tb = b[i].trajectory;
        if (a[i].ok() != b[i].ok() || ta.size() != tb.size())
            return ::testing::AssertionFailure()
                   << "instance " << i << " shape differs";
        for (std::size_t s = 0; s < ta.size(); ++s) {
            if (!sameBits(ta.time(s), tb.time(s)))
                return ::testing::AssertionFailure()
                       << "instance " << i << " time " << s;
            auto sa = ta.state(s);
            auto sb = tb.state(s);
            for (std::size_t k = 0; k < sa.size(); ++k)
                if (!sameBits(sa[k], sb[k]))
                    return ::testing::AssertionFailure()
                           << "instance " << i << " sample " << s
                           << " state " << k;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST_F(EngineTest, TemplatesBindEveryDrawOfTheBenchmarkParadigms)
{
    // The Table 1 and §4.5 pattern: many parameter draws over few
    // structures. Each structure lowers once; every draw binds.
    engine::ArtifactCache cache;
    const lang::Language &ofs = lang("ofs-obc");
    const lang::Language &gmc = lang("gmc-tln");
    support::Rng rng(2024);

    std::set<std::vector<std::pair<int, int>>> subsets;
    std::vector<engine::SystemPtr> maxcut;
    for (int draw = 0; draw < 200; ++draw) {
        paradigms::obc::MaxcutInstance instance;
        instance.numVertices = 4;
        for (int a = 0; a < 4; ++a)
            for (int b = a + 1; b < 4; ++b)
                if (rng.bernoulli(0.5))
                    instance.edges.emplace_back(a, b);
        subsets.insert(instance.edges);
        paradigms::obc::MaxcutSpec spec;
        spec.withOffset = true;
        spec.seed = rng.deriveSeed();
        for (int v = 0; v < 4; ++v)
            spec.initPhases.push_back(
                rng.uniform(0.0, 2.0 * std::numbers::pi));
        maxcut.push_back(cache.system(
            paradigms::obc::buildMaxcut(ofs, instance, spec), ofs));
    }
    std::vector<engine::SystemPtr> lines;
    for (int draw = 0; draw < 40; ++draw) {
        ptln::LineSpec spec;
        spec.sections = 3 + draw % 4; // four topologies
        spec.inductance = rng.uniform(0.5e-9, 2e-9);
        spec.capacitance = rng.uniform(0.5e-9, 2e-9);
        spec.sourceConductance = rng.uniform(0.5, 2.0);
        spec.termConductance = rng.uniform(0.5, 2.0);
        spec.pulseWidth = rng.uniform(0.5e-8, 2e-8);
        spec.mismatchC = true;
        spec.mismatchGm = true;
        spec.seed = rng.deriveSeed();
        lines.push_back(cache.system(ptln::buildLine(gmc, spec), gmc));
    }
    const engine::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.templateMisses, subsets.size() + 4);
    EXPECT_EQ(stats.systemMisses, 240u);

    // The bound systems integrate exactly as the same instances built
    // from their RHS trees through a directly compiled FusedTape.
    for (const auto &[systems, t1] :
         {std::pair{&maxcut, 5e-9}, std::pair{&lines, 3e-9}}) {
        std::vector<compiler::OdeSystem> direct;
        direct.reserve(systems->size());
        for (const engine::SystemPtr &system : *systems)
            direct.emplace_back(system->vars(), system->initialState(),
                                system->rhsExprs());
        std::vector<const compiler::OdeSystem *> bound, reference;
        for (std::size_t i = 0; i < direct.size(); ++i) {
            bound.push_back((*systems)[i].get());
            reference.push_back(&direct[i]);
        }
        sim::EnsembleOptions options;
        options.sim.method = sim::Method::Dopri5;
        options.sim.recordDt = t1 / 10;
        options.numThreads = 1;
        std::vector<sim::SimResult> expected =
            sim::simulateEnsemble(reference, 0.0, t1, options);
        for (unsigned threads : {1u, 2u, 4u}) {
            options.numThreads = threads;
            EXPECT_TRUE(sameEnsembles(
                sim::simulateEnsemble(bound, 0.0, t1, options), expected))
                << threads << " threads";
        }
    }
}

TEST_F(EngineTest, ConcurrentMissesOnOneStructureBuildTheSameProgram)
{
    // The sweep front ends compile on the worker pool, so trials of
    // one structure can miss the template shard together and each
    // lower a template; the shard keeps the first. Every program bound
    // into either must equal the uncached compile of its graph, op for
    // op, with the same shape (the lane-class key).
    engine::ArtifactCache cache;
    const engine::Session session(engine::SessionOptions{.cache = &cache});
    const lang::Language &ofs = lang("ofs-obc");
    const lang::Language &gmc = lang("gmc-tln");
    const std::vector<std::vector<std::pair<int, int>>> edgeSets = {
        {{0, 1}, {1, 2}, {2, 3}}, {{0, 1}, {0, 2}, {0, 3}, {1, 3}}};
    const int sections[] = {3, 5};

    // 16 consecutive draws per structure, so the first draws of each
    // are claimed by different threads at once: two max-cut edge sets
    // on ofs-obc, then two GmC line lengths.
    const std::size_t draws = 64;
    const std::size_t perStructure = 16;
    std::vector<dg::Graph> graphs;
    std::vector<const lang::Language *> languages;
    support::Rng rng(18);
    for (std::size_t i = 0; i < draws; ++i) {
        const std::size_t structure = i / perStructure;
        if (structure < 2) {
            paradigms::obc::MaxcutInstance instance;
            instance.numVertices = 4;
            instance.edges = edgeSets[structure];
            paradigms::obc::MaxcutSpec spec;
            spec.withOffset = true;
            spec.seed = rng.deriveSeed();
            for (int v = 0; v < 4; ++v)
                spec.initPhases.push_back(
                    rng.uniform(0.0, 2.0 * std::numbers::pi));
            graphs.push_back(
                paradigms::obc::buildMaxcut(ofs, instance, spec));
            languages.push_back(&ofs);
        } else {
            ptln::LineSpec spec;
            spec.sections = sections[structure - 2];
            spec.inductance = rng.uniform(0.5e-9, 2e-9);
            spec.capacitance = rng.uniform(0.5e-9, 2e-9);
            spec.pulseWidth = rng.uniform(0.5e-8, 2e-8);
            spec.mismatchC = true;
            spec.mismatchGm = true;
            spec.seed = rng.deriveSeed();
            graphs.push_back(ptln::buildLine(gmc, spec));
            languages.push_back(&gmc);
        }
    }

    std::vector<engine::SystemPtr> systems(draws);
    sim::BatchRunner::shared().parallelFor(draws, 4, [&](std::size_t i) {
        systems[i] = session.compile(graphs[i], *languages[i]);
    });

    for (std::size_t i = 0; i < draws; ++i) {
        const compiler::OdeSystem reference =
            compiler::compile(graphs[i], *languages[i]);
        EXPECT_TRUE(samePrograms(*systems[i], reference)) << "draw " << i;
        EXPECT_TRUE(systems[i]->fusedTape().shape() ==
                    reference.fusedTape().shape())
            << "draw " << i;
    }
    EXPECT_EQ(cache.stats().templatesCached, edgeSets.size() + 2);
}

} // namespace
