/**
 * @file
 * Robustness properties: no layer may crash on hostile input — every
 * failure surfaces as a typed ArkError or a structured per-instance
 * failure. Fuzzes the lexer/parser with random byte strings and
 * random token salads, the SPICE substrate with random-topology /
 * random-value netlists, the engine front door with random ensemble
 * parameter draws, and verifies the shipped .ark files stay in sync
 * with the embedded sources.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "compiler/compiler.h"
#include "engine/session.h"
#include "lang/parser.h"
#include "lang/registry.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/tln.h"
#include "spice/batch.h"
#include "spice/mna.h"
#include "spice/netlist.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

using namespace ark;
using support::ArkError;

class FuzzParser : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzParser, RandomBytesNeverCrash)
{
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761);
    for (int trial = 0; trial < 200; ++trial) {
        std::string source;
        auto length = static_cast<std::size_t>(rng.uniformInt(0, 120));
        for (std::size_t i = 0; i < length; ++i) {
            // Printable ASCII plus whitespace.
            source += static_cast<char>(rng.uniformInt(32, 126));
            if (rng.bernoulli(0.1))
                source += '\n';
        }
        try {
            lang::parseProgram(source);
        } catch (const ArkError &) {
            // expected for garbage
        }
    }
}

TEST_P(FuzzParser, TokenSaladNeverCrashes)
{
    // Valid tokens in random order: exercises the parser's error
    // paths far deeper than byte noise.
    static const char *vocabulary[] = {
        "lang", "func", "ntyp", "etyp", "prod", "cstr", "acc", "rej",
        "match", "inherit", "inherits", "uses", "node", "edge",
        "set-attr", "set-init", "set-switch", "when", "attr", "init",
        "real", "int", "lambd", "mm", "const", "fixed", "sum", "mul",
        "var", "time", "inf", "off", "extern-func", "if", "then",
        "else", "and", "or", "not", "true", "false", "V", "E", "x",
        "(", ")", "{", "}", "[", "]", ",", ":", ";", ".", "=", "->",
        "<=", "<", ">", "+", "-", "*", "/", "^", "0", "1", "2.5",
        "1e-9",
    };
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503);
    const int vocabSize = static_cast<int>(std::size(vocabulary));
    for (int trial = 0; trial < 300; ++trial) {
        std::string source;
        auto length = static_cast<std::size_t>(rng.uniformInt(0, 60));
        for (std::size_t i = 0; i < length; ++i) {
            source += vocabulary[rng.uniformInt(0, vocabSize - 1)];
            source += ' ';
        }
        try {
            lang::parseProgram(source);
        } catch (const ArkError &) {
            // fine
        }
    }
}

TEST_P(FuzzParser, MutatedRealSourcesFailCleanly)
{
    // Deletions and substitutions inside the real TLN source: the
    // frontend must reject or accept, never crash, and the registry
    // must not be corrupted by a failed addProgram.
    std::string base = paradigms::tln::tlnSource();
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 9176);
    for (int trial = 0; trial < 60; ++trial) {
        std::string mutated = base;
        auto edits = static_cast<int>(rng.uniformInt(1, 5));
        for (int e = 0; e < edits; ++e) {
            auto pos = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(mutated.size()) - 1));
            if (rng.bernoulli(0.5)) {
                mutated.erase(pos, 1);
            } else {
                mutated[pos] =
                    static_cast<char>(rng.uniformInt(32, 126));
            }
        }
        lang::LanguageRegistry registry;
        try {
            registry.addProgram(mutated);
        } catch (const ArkError &) {
            continue;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParser, ::testing::Range(1, 5));

class FuzzEngine : public ::testing::TestWithParam<int>
{
};

/** Wide log-uniform magnitude with degenerate draws (0, negatives). */
double
fuzzValue(support::Rng &rng)
{
    if (rng.bernoulli(0.05))
        return 0.0;
    double magnitude = std::pow(10.0, rng.uniformInt(-12, 12));
    return rng.bernoulli(0.2) ? -magnitude : magnitude;
}

/**
 * Random node pick spanning ground, every valid id, and a deliberate
 * out-of-range id on each side — element constructors must reject the
 * invalid ones with a typed error, never crash.
 */
int
fuzzNode(support::Rng &rng, int numNodes)
{
    return static_cast<int>(rng.uniformInt(-2, numNodes));
}

TEST_P(FuzzEngine, RandomNetlistsNeverCrash)
{
    // Random-topology, random-value netlists through netlist
    // construction, SparseMnaSystem assembly, and a batched
    // transient: the only acceptable outcomes are a typed ArkError
    // (construction/assembly) or a structured per-instance
    // TransientFailure (simulation). Degenerate values — zeros,
    // negatives, wild magnitudes, dangling nodes — are all on the
    // menu.
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    std::vector<spice::Netlist> built;
    for (int trial = 0; trial < 120; ++trial) {
        spice::Netlist netlist;
        int numNodes = static_cast<int>(rng.uniformInt(1, 6));
        for (int n = 0; n < numNodes; ++n)
            netlist.addNode("n" + std::to_string(n));
        auto elements = static_cast<int>(rng.uniformInt(0, 10));
        bool valid = true;
        for (int e = 0; e < elements && valid; ++e) {
            std::string name = "e" + std::to_string(e);
            int pos = fuzzNode(rng, numNodes);
            int neg = fuzzNode(rng, numNodes);
            double value = fuzzValue(rng);
            try {
                switch (rng.uniformInt(0, 5)) {
                case 0:
                    netlist.resistor(name, pos, neg, value);
                    break;
                case 1:
                    netlist.capacitor(name, pos, neg, value);
                    break;
                case 2:
                    netlist.inductor(name, pos, neg, value);
                    break;
                case 3:
                    netlist.vccs(name, pos, neg,
                                 fuzzNode(rng, numNodes),
                                 fuzzNode(rng, numNodes), value);
                    break;
                case 4:
                    netlist.currentSource(name, pos, neg, value);
                    break;
                default:
                    netlist.voltageSource(name, pos, neg, value);
                    break;
                }
            } catch (const ArkError &) {
                valid = false; // rejected with a typed error: fine
            }
        }
        if (!valid)
            continue;
        try {
            spice::SparseMnaSystem system(netlist);
        } catch (const ArkError &) {
            // unassemblable (e.g. no elements): typed, fine — but
            // TransientBatch below must still absorb it structurally.
        }
        built.push_back(std::move(netlist));
    }
    ASSERT_FALSE(built.empty());
    spice::TransientBatchOptions options;
    options.numThreads = 2;
    auto results =
        spice::TransientBatch(options).run(built, 0.0, 1e-8, 1e-9);
    ASSERT_EQ(results.size(), built.size());
    for (const auto &result : results) {
        // ok() or structured failure — nothing else can escape.
        if (!result.ok()) {
            EXPECT_FALSE(result.failure->message.empty());
        }
    }
}

TEST_P(FuzzEngine, RandomEnsembleDrawsNeverCrash)
{
    // Random parameter/init draws through the full front door
    // (language -> graph -> compile -> Session::runEnsemble). Builder
    // rejections for out-of-range attributes are typed; everything
    // that compiles must come back ok or with a structured
    // per-instance failure, or throw a typed error.
    lang::LanguageRegistry registry;
    registry.addProgram(R"(
        lang fuzzosc {
            ntyp(2,sum) X {attr w2=real[0,100000],
                           init(0) real[-10,10],
                           init(1) real[-10,10]};
            etyp E {};
            prod(e:E,s:X->s:X) s <= -s.w2*var(s);
        }
    )");
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    engine::Session session;
    for (int round = 0; round < 6; ++round) {
        std::vector<engine::SystemPtr> systems;
        auto count = static_cast<int>(rng.uniformInt(1, 6));
        for (int i = 0; i < count; ++i) {
            // Draws straddle the declared attribute/init ranges so
            // both acceptance and typed rejection get exercised.
            double w2 = rng.uniformInt(0, 3) == 0
                            ? fuzzValue(rng)
                            : double(rng.uniformInt(0, 100000));
            double x0 = double(rng.uniformInt(-15, 15));
            double v0 = double(rng.uniformInt(-15, 15));
            try {
                lang::GraphBuilder builder(registry.language("fuzzosc"),
                                           0);
                builder.node("x", "X");
                builder.attr("x", "w2", w2);
                builder.edge("self", "E", "x", "x");
                builder.init("x", 0, x0);
                builder.init("x", 1, v0);
                systems.push_back(
                    std::make_shared<const compiler::OdeSystem>(
                        compiler::compile(
                            builder.take(),
                            registry.language("fuzzosc"))));
            } catch (const ArkError &) {
                continue; // typed rejection of an out-of-range draw
            }
        }
        if (systems.empty())
            continue;
        sim::EnsembleOptions options;
        options.sim.method = sim::Method::Rk4;
        options.sim.dt = rng.bernoulli(0.1) ? 0.0 : 1e-3;
        options.sim.maxSteps = 2000;
        options.sim.recordDt = 1e-2;
        options.numThreads = 2;
        try {
            auto results =
                session.runEnsemble(systems, 0.0, 1.0, options);
            ASSERT_EQ(results.size(), systems.size());
            for (const auto &result : results) {
                if (!result.ok()) {
                    EXPECT_FALSE(result.failure->message.empty());
                }
            }
        } catch (const ArkError &) {
            // batch-level misconfiguration (e.g. dt == 0) or an
            // instance's rethrown step collapse: typed.
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEngine, ::testing::Range(1, 4));

TEST(ShippedSources, ParadigmsFileMatchesEmbedded)
{
    // languages/paradigms.ark is generated by `arkc dump`; it must
    // stay byte-identical to the embedded sources.
    std::ifstream file("../../languages/paradigms.ark");
    if (!file.is_open())
        file.open("../languages/paradigms.ark");
    if (!file.is_open())
        file.open("languages/paradigms.ark");
    if (!file.is_open())
        GTEST_SKIP() << "shipped sources not found from this cwd";
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string expected = paradigms::tln::tlnSource() +
                           paradigms::tln::gmcTlnSource() +
                           paradigms::tln::brFuncSource() +
                           paradigms::cnn::cnnSource() +
                           paradigms::cnn::hwCnnSource() +
                           paradigms::obc::obcSource() +
                           paradigms::obc::ofsObcSource() +
                           paradigms::obc::interconObcSource();
    EXPECT_EQ(buffer.str(), expected);
}

TEST(ShippedSources, LossyDemoParses)
{
    std::ifstream file("../../languages/lossy_tln_demo.ark");
    if (!file.is_open())
        file.open("../languages/lossy_tln_demo.ark");
    if (!file.is_open())
        file.open("languages/lossy_tln_demo.ark");
    if (!file.is_open())
        GTEST_SKIP() << "shipped sources not found from this cwd";
    std::ostringstream buffer;
    buffer << file.rdbuf();
    lang::LanguageRegistry registry;
    registry.addProgram(paradigms::tln::tlnSource());
    EXPECT_NO_THROW(registry.addProgram(buffer.str()));
    EXPECT_NE(registry.findLanguage("lossy-tln"), nullptr);
    EXPECT_NE(registry.findFunction("demo-line"), nullptr);
}

} // namespace
