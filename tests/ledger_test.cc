/**
 * @file
 * Tests for the per-run flight recorder (telemetry::RunLedger):
 * bounded append semantics, JSON export, the provenance records the
 * ODE ensemble and SPICE sweep engines flush (tier, lane width, block,
 * structured failures), the cache outcomes only the session's
 * cache-backed sweep can report, and which ledger a session run
 * records into (a per-run ledger over the session's).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "engine/session.h"
#include "expr/cjit.h"
#include "lang/registry.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "sim/sim.h"
#include "spice/batch.h"
#include "spice/map_tln.h"
#include "support/ledger.h"
#include "support/telemetry.h"
#include "validator/validator.h"

#include "json_checker.h"

namespace {

using namespace ark;
using telemetry::RunLedger;

namespace ptln = paradigms::tln;

/**
 * The tier an ODE record should carry given its interpreted baseline:
 * under ARK_JIT_FORCE=1 (the CI jit lane) every RHS that compiles is
 * served by a JIT kernel, so provenance legitimately reads "jit".
 */
RunLedger::Tier
expectedTier(RunLedger::Tier interpreted)
{
    if (expr::jitEnabled(false) && expr::jitToolchainAvailable())
        return RunLedger::Tier::Jit;
    return interpreted;
}

/** dx/dt = k x: decays for k < 0, diverges to +/-inf for large k. */
compiler::OdeSystem
feedbackSystem(lang::LanguageRegistry &registry, double k, double x0)
{
    if (!registry.findLanguage("feedback")) {
        registry.addProgram(R"(
            lang feedback {
                ntyp(1,sum) X {attr k=real[-1000,1000],
                               init(0) real[-100,100]};
                etyp E {};
                prod(e:E,s:X->s:X) s <= s.k*var(s);
            }
        )");
    }
    lang::GraphBuilder builder(registry.language("feedback"), 0);
    builder.node("x", "X");
    builder.attr("x", "k", k);
    builder.edge("self", "E", "x", "x");
    builder.init("x", 0, x0);
    return compiler::compile(builder.take(),
                             registry.language("feedback"));
}

/** Same TLN topology per seed: only the mismatch values vary. */
spice::MappedTln
sharedStructureLine(const lang::LanguageRegistry &registry,
                    std::uint64_t seed, int sections = 5)
{
    const lang::Language &gmc = registry.language("gmc-tln");
    ptln::LineSpec spec;
    spec.sections = sections;
    spec.mismatchC = true;
    spec.mismatchGm = true;
    spec.seed = seed;
    dg::Graph graph = ptln::buildLine(gmc, spec);
    validator::validateOrThrow(graph, gmc);
    return spice::mapTlnToSpice(graph, gmc);
}

TEST(LedgerTest, BoundedAppendCountsDrops)
{
    RunLedger ledger(4);
    EXPECT_EQ(ledger.capacity(), 4u);
    const std::uint64_t run = ledger.beginRun(RunLedger::Workload::Ode, 6);
    EXPECT_EQ(run, 1u);
    for (std::size_t i = 0; i < 6; ++i) {
        RunLedger::Record record;
        record.runId = run;
        record.index = i;
        ledger.append(std::move(record));
    }
    EXPECT_EQ(ledger.size(), 4u);
    EXPECT_EQ(ledger.dropped(), 2u);
    ledger.clear();
    EXPECT_EQ(ledger.size(), 0u);
    EXPECT_EQ(ledger.dropped(), 0u);
    EXPECT_EQ(ledger.beginRun(RunLedger::Workload::Spice, 1), 2u);
}

TEST(LedgerTest, EnumSpellingsAreStable)
{
    EXPECT_STREQ(RunLedger::name(RunLedger::Workload::Ode), "ode");
    EXPECT_STREQ(RunLedger::name(RunLedger::Workload::Spice), "spice");
    EXPECT_STREQ(RunLedger::name(RunLedger::Tier::Scalar), "scalar");
    EXPECT_STREQ(RunLedger::name(RunLedger::Tier::Lane), "lane");
    EXPECT_STREQ(RunLedger::name(RunLedger::Tier::Sparse), "sparse");
    EXPECT_STREQ(RunLedger::name(RunLedger::Tier::Jit), "jit");
    EXPECT_STREQ(RunLedger::name(RunLedger::CacheOutcome::None), "none");
    EXPECT_STREQ(RunLedger::name(RunLedger::CacheOutcome::Hit), "hit");
    EXPECT_STREQ(RunLedger::name(RunLedger::CacheOutcome::Miss), "miss");
    // The failure_reason values ledger exports carry.
    EXPECT_STREQ(sim::abortReasonName(sim::AbortReason::Diverged),
                 "diverged");
    EXPECT_STREQ(sim::abortReasonName(sim::AbortReason::BudgetExhausted),
                 "budget_exhausted");
    EXPECT_STREQ(spice::transientAbortName(spice::TransientAbort::BadInput),
                 "bad_input");
    EXPECT_STREQ(
        spice::transientAbortName(spice::TransientAbort::SingularMatrix),
        "singular_matrix");
    EXPECT_STREQ(
        spice::transientAbortName(spice::TransientAbort::NonfiniteState),
        "nonfinite_state");
}

TEST(LedgerTest, JsonRoundTripsAndEscapes)
{
    RunLedger ledger;
    const std::uint64_t run =
        ledger.beginRun(RunLedger::Workload::Spice, 2);
    RunLedger::Record good;
    good.runId = run;
    good.index = 0;
    good.workload = RunLedger::Workload::Spice;
    good.tier = RunLedger::Tier::Sparse;
    good.cache = RunLedger::CacheOutcome::Hit;
    good.stepsAccepted = 100;
    ledger.append(std::move(good));
    RunLedger::Record bad;
    bad.runId = run;
    bad.index = 1;
    bad.workload = RunLedger::Workload::Spice;
    bad.ok = false;
    bad.failureReason = "singular_matrix";
    bad.failureMessage = "pivot \"G7\"\n\tcollapsed \\ here \x01";
    ledger.append(std::move(bad));

    const std::string json = ledger.json();
    testutil::JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"records\""), std::string::npos);
    EXPECT_NE(json.find("\"cache\": \"hit\""), std::string::npos);
    EXPECT_NE(json.find("singular_matrix"), std::string::npos);
    EXPECT_NE(json.find("here \\u0001"), std::string::npos);
}

TEST(LedgerTest, OdeEnsembleLaneAndScalarProvenance)
{
    lang::LanguageRegistry registry;
    std::vector<compiler::OdeSystem> systems;
    // k stays clear of +/-1 and 0: those fold to shorter tapes
    // (multiply-by-one elision), which would split the lane class.
    for (int i = 0; i < 6; ++i)
        systems.push_back(feedbackSystem(registry, -2.0 - i, 2.0 + i));
    std::vector<const compiler::OdeSystem *> pointers;
    for (const compiler::OdeSystem &system : systems)
        pointers.push_back(&system);

    RunLedger ledger;
    sim::EnsembleOptions options;
    options.sim.dt = 1e-3;
    options.ledger = &ledger;
    sim::simulateEnsemble(pointers, 0.0, 1.0, options);

    std::vector<RunLedger::Record> records = ledger.records();
    ASSERT_EQ(records.size(), pointers.size());
    std::vector<bool> seen(pointers.size(), false);
    for (const RunLedger::Record &record : records) {
        EXPECT_EQ(record.runId, 1u);
        EXPECT_EQ(record.workload, RunLedger::Workload::Ode);
        EXPECT_EQ(record.tier, expectedTier(RunLedger::Tier::Lane));
        EXPECT_EQ(record.lanes, 6u);
        EXPECT_EQ(record.laneWidth, 8u); // 6 lanes pad to width 8
        EXPECT_GT(record.stepsAccepted, 0u);
        EXPECT_TRUE(record.ok);
        ASSERT_LT(record.index, seen.size());
        seen[record.index] = true;
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << "no record for instance " << i;

    // The scalar ablation path reports scalar-tier records.
    options.laneBatching = false;
    sim::simulateEnsemble(pointers, 0.0, 1.0, options);
    records = ledger.records();
    ASSERT_EQ(records.size(), 2 * pointers.size());
    for (std::size_t r = pointers.size(); r < records.size(); ++r) {
        EXPECT_EQ(records[r].runId, 2u);
        EXPECT_EQ(records[r].tier, expectedTier(RunLedger::Tier::Scalar));
        EXPECT_EQ(records[r].laneWidth, 1u);
        EXPECT_EQ(records[r].lanes, 1u);
    }
}

TEST(LedgerTest, OdeFailureRecordsCarryStructuredReason)
{
    lang::LanguageRegistry registry;
    compiler::OdeSystem healthy = feedbackSystem(registry, -1.0, 2.0);
    compiler::OdeSystem diverging = feedbackSystem(registry, 900.0, 2.0);
    std::vector<const compiler::OdeSystem *> pointers{&healthy,
                                                      &diverging};

    RunLedger ledger;
    sim::EnsembleOptions options;
    options.sim.dt = 1e-3;
    options.ledger = &ledger;
    std::vector<sim::SimResult> results =
        sim::simulateEnsemble(pointers, 0.0, 2.0, options);
    ASSERT_TRUE(results[0].ok());
    ASSERT_FALSE(results[1].ok());

    std::vector<RunLedger::Record> records = ledger.records();
    ASSERT_EQ(records.size(), 2u);
    for (const RunLedger::Record &record : records) {
        if (record.index == 0) {
            EXPECT_TRUE(record.ok);
            EXPECT_TRUE(record.failureReason.empty());
        } else {
            EXPECT_FALSE(record.ok);
            EXPECT_EQ(record.failureReason, "diverged");
            EXPECT_FALSE(record.failureMessage.empty());
        }
    }
}

TEST(LedgerTest, SpiceSweepRecordsStructureGroups)
{
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<spice::MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        mapped.push_back(sharedStructureLine(registry, seed));
    std::vector<const spice::Netlist *> netlists;
    for (const spice::MappedTln &m : mapped)
        netlists.push_back(&m.netlist);

    RunLedger ledger;
    spice::TransientBatchOptions options;
    options.ledger = &ledger;
    spice::TransientBatch batch(options);
    std::vector<spice::TransientResult> results =
        batch.run(netlists, 0.0, 1e-9, 1e-11);
    for (const spice::TransientResult &result : results)
        ASSERT_TRUE(result.ok());

    std::vector<RunLedger::Record> records = ledger.records();
    ASSERT_EQ(records.size(), netlists.size());
    const std::size_t block = records.front().blockId;
    for (const RunLedger::Record &record : records) {
        EXPECT_EQ(record.workload, RunLedger::Workload::Spice);
        EXPECT_EQ(record.tier, RunLedger::Tier::Sparse);
        EXPECT_EQ(record.blockId, block); // one structure group
        EXPECT_EQ(record.lanes, netlists.size());
        EXPECT_GT(record.stepsAccepted, 0u);
        EXPECT_EQ(record.cache, RunLedger::CacheOutcome::None);
        EXPECT_TRUE(record.ok);
    }
}

TEST(LedgerTest, SessionSweepRecordsCacheOutcomes)
{
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<spice::MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        mapped.push_back(sharedStructureLine(registry, seed));
    std::vector<const spice::Netlist *> netlists;
    for (const spice::MappedTln &m : mapped)
        netlists.push_back(&m.netlist);

    engine::ArtifactCache cache;
    RunLedger ledger;
    engine::SessionOptions sessionOptions;
    sessionOptions.cache = &cache;
    sessionOptions.ledger = &ledger; // session-level default ledger
    engine::Session session(sessionOptions);

    session.runSweep(netlists, 0.0, 1e-9, 1e-11); // cold factors
    session.runSweep(netlists, 0.0, 1e-9, 1e-11); // warm factors

    std::vector<RunLedger::Record> records = ledger.records();
    ASSERT_EQ(records.size(), 2 * netlists.size());
    for (const RunLedger::Record &record : records) {
        EXPECT_EQ(record.workload, RunLedger::Workload::Spice);
        EXPECT_EQ(record.tier, RunLedger::Tier::Sparse);
        const RunLedger::CacheOutcome expected =
            record.runId == 1 ? RunLedger::CacheOutcome::Miss
                              : RunLedger::CacheOutcome::Hit;
        EXPECT_EQ(record.cache, expected)
            << "run " << record.runId << " instance " << record.index;
    }
}

TEST(LedgerTest, PerRunLedgerOverridesSessionLedger)
{
    // Runs that bring no ledger of their own record into the
    // session's; a per-run ledger takes all of that run's records.
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    std::vector<engine::SystemPtr> systems;
    for (int i = 0; i < 3; ++i)
        systems.push_back(std::make_shared<const compiler::OdeSystem>(
            feedbackSystem(registry, -2.0 - i, 2.0)));
    std::vector<spice::MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 2; ++seed)
        mapped.push_back(sharedStructureLine(registry, seed));
    std::vector<const spice::Netlist *> netlists;
    for (const spice::MappedTln &m : mapped)
        netlists.push_back(&m.netlist);

    engine::ArtifactCache cache;
    RunLedger sessionLedger;
    engine::SessionOptions sessionOptions;
    sessionOptions.cache = &cache;
    sessionOptions.ledger = &sessionLedger;
    engine::Session session(sessionOptions);
    sim::EnsembleOptions ensembleOptions;
    ensembleOptions.sim.dt = 1e-3;
    spice::TransientBatchOptions sweepOptions;

    session.runEnsemble(systems, 0.0, 1.0, ensembleOptions);
    session.runSweep(netlists, 0.0, 1e-9, 1e-11, sweepOptions);
    EXPECT_EQ(sessionLedger.size(), 5u);

    RunLedger perRun;
    ensembleOptions.ledger = &perRun;
    sweepOptions.ledger = &perRun;
    session.runEnsemble(systems, 0.0, 1.0, ensembleOptions);
    session.runSweep(netlists, 0.0, 1e-9, 1e-11, sweepOptions);
    EXPECT_EQ(sessionLedger.size(), 5u); // the session ledger got none
    std::vector<RunLedger::Record> records = perRun.records();
    ASSERT_EQ(records.size(), 5u);
    std::size_t ode = 0;
    for (const RunLedger::Record &record : records)
        ode += record.workload == RunLedger::Workload::Ode;
    EXPECT_EQ(ode, systems.size());
}

} // namespace
