/**
 * @file
 * arkc — command-line driver for the Ark framework (paper §4.6).
 *
 * Subcommands:
 *   arkc dump                         print the built-in paradigm DSLs
 *   arkc parse <file.ark>...          parse and list definitions
 *   arkc equations <file> <func> [args...]
 *                                     invoke + validate + print ODEs
 *   arkc run <file> <func> [args...] [--seed N] [--t-end T]
 *            [--record-dt D] [--observe n1,n2,...] [--jit|--no-jit]
 *                                     simulate and emit CSV
 *
 * Function arguments are positional literals: integers, reals, or
 * `true`/`false`. Built-in languages (tln, gmc-tln, cnn, hw-cnn, obc,
 * ofs-obc, intercon-obc) are preloaded, so user .ark files can extend
 * them directly.
 *
 * Compilation runs through the engine's content-addressed artifact
 * cache (ark::engine::Session); `--cache-stats` on equations/run
 * prints the hit/miss counters to stderr after the command.
 * `--ir-stats` prints compiler IR statistics to stderr: RHS tree vs.
 * unique (hash-consed) node counts and the sharing ratio, the
 * process-wide intern table counters, the reassociation pass's
 * rewrite deltas, and the FMA contraction share of the plain and
 * reassociated tape variants.
 * `--metrics` prints the engine telemetry registry to stderr,
 * `--trace out.json` records the command as Chrome trace-event JSON
 * (load it in chrome://tracing or Perfetto), and `--ledger out.json`
 * writes the run's per-instance flight-recorder records. See
 * docs/TELEMETRY.md.
 *
 * A numeric flag value (`--seed`, `--t-end`, `--record-dt`) must parse
 * as a whole; anything else is an error naming the flag.
 */

#include <charconv>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "compiler/compiler.h"
#include "engine/session.h"
#include "lang/parser.h"
#include "lang/registry.h"
#include "paradigms/cnn.h"
#include "paradigms/obc.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "sim/sim.h"
#include "support/error.h"
#include "support/ledger.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/telemetry.h"

namespace {

using namespace ark;

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  arkc dump\n"
        "  arkc parse <file.ark>...\n"
        "  arkc equations <file.ark> <func> [args...]\n"
        "  arkc run <file.ark> <func> [args...] [--seed N] [--t-end T]\n"
        "       [--record-dt D] [--observe node1,node2,...]\n"
        "       [--jit|--no-jit]\n"
        "\n"
        "--jit compiles the RHS to a native kernel (bit-identical to\n"
        "the interpreter; falls back silently without a toolchain).\n"
        "equations/run compile through the engine artifact cache;\n"
        "--cache-stats prints its hit/miss counters to stderr.\n"
        "--ir-stats prints IR statistics (node/sharing counts,\n"
        "rewrite deltas, FMA contraction share) to stderr.\n"
        "--metrics prints engine telemetry counters to stderr;\n"
        "--trace FILE writes a Chrome trace (chrome://tracing);\n"
        "--ledger FILE writes the run's flight-recorder JSON.\n";
    return 2;
}

std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        throw support::IoError("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

/** Parses a positional CLI literal into an Ark value. */
expr::Value
parseArgValue(const std::string &text)
{
    if (text == "true")
        return expr::Value::boolean(true);
    if (text == "false")
        return expr::Value::boolean(false);
    try {
        std::size_t used = 0;
        if (text.find_first_of(".eE") == std::string::npos) {
            long long i = std::stoll(text, &used);
            if (used == text.size())
                return expr::Value::integer(i);
        }
        double d = std::stod(text, &used);
        if (used == text.size())
            return expr::Value::real(d);
    } catch (const std::exception &) {
        // fall through
    }
    throw support::IoError("cannot parse argument '" + text + "'");
}

/**
 * Parses a numeric flag value. The whole token must be a number of
 * type T in range; otherwise throws IoError naming the flag.
 */
template <typename T>
T
parseFlagValue(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        throw support::IoError("invalid value for " + flag + ": '" +
                               text + "'");
    return value;
}

struct RunOptions
{
    std::string file;
    std::string func;
    std::vector<expr::Value> args;
    std::uint64_t seed = 0;
    double tEnd = 1.0;
    double recordDt = 0.0;
    std::vector<std::string> observe;
    bool jit = false;
    bool cacheStats = false;
    bool irStats = false;
    bool metrics = false;
    std::string tracePath;  ///< Empty = no trace recording.
    std::string ledgerPath; ///< Empty = no flight recorder.
};

RunOptions
parseRunArgs(int argc, char **argv, int first)
{
    RunOptions options;
    if (first + 1 >= argc)
        throw support::IoError("missing file or function name");
    options.file = argv[first];
    options.func = argv[first + 1];
    for (int i = first + 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                throw support::IoError("missing value after " + arg);
            return argv[i];
        };
        if (arg == "--seed") {
            options.seed = parseFlagValue<std::uint64_t>(arg, next());
        } else if (arg == "--t-end") {
            options.tEnd = parseFlagValue<double>(arg, next());
        } else if (arg == "--record-dt") {
            options.recordDt = parseFlagValue<double>(arg, next());
        } else if (arg == "--observe") {
            options.observe = support::split(next(), ',');
        } else if (arg == "--jit") {
            options.jit = true;
        } else if (arg == "--no-jit") {
            options.jit = false;
        } else if (arg == "--cache-stats") {
            options.cacheStats = true;
        } else if (arg == "--ir-stats") {
            options.irStats = true;
        } else if (arg == "--metrics") {
            options.metrics = true;
        } else if (arg == "--trace") {
            options.tracePath = next();
        } else if (arg == "--ledger") {
            options.ledgerPath = next();
        } else {
            options.args.push_back(parseArgValue(arg));
        }
    }
    return options;
}

int
cmdDump()
{
    std::cout << paradigms::tln::tlnSource()
              << paradigms::tln::gmcTlnSource()
              << paradigms::tln::brFuncSource()
              << paradigms::cnn::cnnSource()
              << paradigms::cnn::hwCnnSource()
              << paradigms::obc::obcSource()
              << paradigms::obc::ofsObcSource()
              << paradigms::obc::interconObcSource();
    return 0;
}

int
cmdParse(int argc, char **argv)
{
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    for (int i = 2; i < argc; ++i)
        registry.addProgram(readFile(argv[i]));
    support::Table langs({"language", "node types", "edge types",
                          "prod rules", "cstrs"});
    for (const std::string &name : registry.languageNames()) {
        const lang::Language &lang = registry.language(name);
        langs.addRow({name,
                      std::to_string(lang.types().nodeTypes().size()),
                      std::to_string(lang.types().edgeTypes().size()),
                      std::to_string(lang.prodRules().size()),
                      std::to_string(lang.cstrs().size())});
    }
    langs.print(std::cout);
    std::cout << "\nfunctions: "
              << support::join(registry.functionNames(), ", ") << "\n";
    return 0;
}

/** Shared invoke path for equations/run (validation happens inside
 *  the engine session's cached compile). */
dg::Graph
buildGraph(lang::LanguageRegistry &registry, const RunOptions &options,
           const lang::Language **langOut)
{
    registry.addProgram(readFile(options.file));
    dg::Graph graph =
        registry.invoke(options.func, options.args, options.seed);
    *langOut = &registry.language(graph.langName());
    return graph;
}

/**
 * Arms telemetry per the CLI flags for the duration of a command:
 * --metrics turns on metric collection, and --trace records spans
 * and writes the Chrome trace file when the scope ends.
 */
struct TelemetryScope
{
    explicit TelemetryScope(const RunOptions &options)
    {
        if (options.metrics)
            telemetry::setMetricsEnabled(true);
        if (!options.tracePath.empty())
            trace.emplace(options.tracePath);
    }

    std::optional<telemetry::TraceSession> trace;
};

/**
 * Prints the compiled system's IR statistics to stderr: how much the
 * hash-consed IR shares (tree nodes counted as if expanded vs. unique
 * interned nodes), what the opt-in reassociation pass would change,
 * and how many tape instructions contract to FusedMulAdd with and
 * without it. Builds the lazy Fma/Reassoc programs as a side effect —
 * acceptable for a diagnostics flag.
 */
void
reportIrStats(const compiler::OdeSystem &system)
{
    std::uint64_t treeNodes = 0;
    std::unordered_set<const expr::Expr *> unique;
    for (const expr::ExprPtr &e : system.rhsExprs()) {
        e->visit([&](const expr::Expr &node) {
            ++treeNodes;
            unique.insert(&node);
        });
    }
    const double sharing =
        unique.empty() ? 1.0
                       : static_cast<double>(treeNodes) /
                             static_cast<double>(unique.size());

    const expr::FusedTape &plain = system.fusedTape();
    const expr::FusedTape &fma = system.rhsTape(expr::RoundingMode::Fma);
    const expr::FusedTape &reassoc =
        system.rhsTape(expr::RoundingMode::Reassoc);
    const expr::RewriteStats &rw = system.reassocStats();
    auto share = [](std::uint64_t contractions, std::size_t plainOps) {
        return plainOps == 0 ? 0.0
                             : 100.0 * static_cast<double>(contractions) /
                                   static_cast<double>(plainOps);
    };
    expr::InternStats intern = expr::internStats();

    std::ostream &out = std::cerr;
    out << "arkc: ir: rhs tree nodes " << treeNodes << ", unique "
        << unique.size() << " (sharing x" << sharing << ")\n";
    out << "arkc: ir: intern table: live " << intern.liveNodes
        << ", interned " << intern.internedTotal << ", hits "
        << intern.hits << ", purged " << intern.purged << "\n";
    out << "arkc: ir: reassoc rewrite: nodes " << rw.nodesBefore
        << " -> " << rw.nodesAfter << " (div->recip "
        << rw.divReciprocals << ", const-folds " << rw.mulConstFolds
        << ", neg-folds " << rw.negFolds << ", sub->add "
        << rw.subToAdd << ")\n";
    out << "arkc: ir: fma contraction: plain "
        << fma.fmaContractions() << "/" << plain.size() << " ops ("
        << share(fma.fmaContractions(), plain.size())
        << "%), reassoc " << reassoc.fmaContractions() << "/"
        << plain.size() << " ops ("
        << share(reassoc.fmaContractions(), plain.size()) << "%)\n";
}

/** Prints cache counters / IR stats / telemetry metrics when
 *  requested. */
void
reportCacheStats(const RunOptions &options, const engine::Session &session)
{
    if (options.cacheStats)
        std::cerr << "arkc: cache: " << session.cache().stats().str()
                  << "\n";
    if (options.metrics)
        std::cerr << session.metricsSnapshot().str();
}

int
cmdEquations(int argc, char **argv)
{
    RunOptions options = parseRunArgs(argc, argv, 2);
    TelemetryScope telemetryScope(options);
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language *lang = nullptr;
    dg::Graph graph = buildGraph(registry, options, &lang);
    engine::Session session;
    engine::SystemPtr system = session.compile(graph, *lang);
    std::cout << system->equationsStr();
    if (options.irStats)
        reportIrStats(*system);
    reportCacheStats(options, session);
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    RunOptions options = parseRunArgs(argc, argv, 2);
    TelemetryScope telemetryScope(options);
    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language *lang = nullptr;
    dg::Graph graph = buildGraph(registry, options, &lang);
    engine::Session session;
    engine::SystemPtr systemPtr = session.compile(graph, *lang);
    const compiler::OdeSystem &system = *systemPtr;

    sim::SimOptions simOptions;
    simOptions.recordDt = options.recordDt > 0
                              ? options.recordDt
                              : options.tEnd / 500.0;
    simOptions.jit = options.jit;
    // A single-system ensemble runs one one-lane block, bit-identical
    // to serial sim::simulate — dispatched through the session so the
    // flight recorder sees it.
    telemetry::RunLedger ledger;
    sim::EnsembleOptions ensembleOptions;
    ensembleOptions.sim = simOptions;
    if (!options.ledgerPath.empty())
        ensembleOptions.ledger = &ledger;
    std::vector<sim::SimResult> results = session.runEnsemble(
        {systemPtr}, 0.0, options.tEnd, ensembleOptions);
    sim::SimResult result = std::move(results.front());
    if (!options.ledgerPath.empty()) {
        std::ofstream out(options.ledgerPath);
        if (!out)
            throw support::IoError("cannot open '" +
                                   options.ledgerPath + "'");
        out << ledger.json() << "\n";
        std::cerr << "arkc: ledger written to " << options.ledgerPath
                  << "\n";
    }
    if (!result.ok()) {
        std::cerr << "warning: " << result.failure->message
                  << " (emitting the partial trajectory)\n";
    }

    // Default: observe every state variable.
    std::vector<int> indices;
    std::vector<std::string> header{"t"};
    if (options.observe.empty()) {
        for (std::size_t i = 0; i < system.size(); ++i) {
            indices.push_back(static_cast<int>(i));
            header.push_back(system.vars()[i].label());
        }
    } else {
        for (const std::string &name : options.observe) {
            indices.push_back(system.stateIndex(name, 0));
            header.push_back(name);
        }
    }

    support::CsvWriter csv(std::cout);
    csv.writeRow(header);
    for (std::size_t s = 0; s < result.trajectory.size(); ++s) {
        std::vector<double> row{result.trajectory.time(s)};
        for (int idx : indices)
            row.push_back(result.trajectory.state(s)
                              [static_cast<std::size_t>(idx)]);
        csv.writeRow(row);
    }
    if (options.irStats)
        reportIrStats(system);
    reportCacheStats(options, session);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string command = argv[1];
    try {
        if (command == "dump")
            return cmdDump();
        if (command == "parse")
            return argc >= 3 ? cmdParse(argc, argv) : usage();
        if (command == "equations")
            return cmdEquations(argc, argv);
        if (command == "run")
            return cmdRun(argc, argv);
    } catch (const support::ArkError &err) {
        std::cerr << "arkc: " << err.what() << "\n";
        return 1;
    }
    return usage();
}
