/**
 * @file
 * metrics_probe — tiny end-to-end telemetry workload for CI and
 * bench_smoke.
 *
 * Runs a small PUF challenge battery (compile ladder + lane-batched
 * ensemble + artifact cache, twice so the second pass hits warm
 * artifacts), a small SPICE parameter sweep (structure grouping +
 * factor/refactor + stepper cache, also cold then warm), and — when a
 * host toolchain is available — a JIT ensemble (cold kernel
 * compile, then warm kernel-cache serves) with metric collection
 * enabled, then emits a JSON summary:
 *
 *   {"cache_hit_rate": ..., "mean_lane_occupancy": ...,
 *    "refactor_share": ..., "jit_hit_rate": ..., "jit_compiles": ...,
 *    "jit_compile_ns_p95": ...,
 *    "quantiles": {<histogram>: {p50/p95/p99}},
 *    "counters": { <registry snapshot> }}
 *
 * bench_smoke embeds this object as the "metrics" block of
 * BENCH_perf.json; the CI tier-1 job additionally passes --trace to
 * produce the sample Chrome trace artifact it validates, and
 * tools/check_prometheus.py passes --prometheus and validates the
 * Prometheus text exposition of the same snapshot. Exits nonzero
 * only when the workload itself fails — metric values are data, not
 * assertions.
 *
 * Usage: metrics_probe [--out summary.json] [--trace out.trace.json]
 *                      [--ledger ledger.json] [--prometheus out.prom]
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "apps/puf.h"
#include "engine/session.h"
#include "expr/cjit.h"
#include "paradigms/standard.h"
#include "paradigms/tln.h"
#include "spice/map_tln.h"
#include "support/error.h"
#include "support/ledger.h"
#include "support/telemetry.h"
#include "validator/validator.h"

namespace {

using namespace ark;

/** The PUF battery: compile + cache + lane-batched ensemble. */
void
runPufWorkload(const lang::LanguageRegistry &registry,
               const engine::Session &session)
{
    const lang::Language &gmc = registry.language("gmc-tln");
    apps::PufDesign design;
    design.mainSections = 8;
    design.numBranches = 2;
    design.stubSections = 2;
    design.responseBits = 8;
    apps::TlnPuf puf(gmc, design, session);

    const std::vector<std::uint32_t> challenges = {0, 1, 2, 3};
    const std::vector<std::uint64_t> chips = {1, 2, 3, 4};
    // Twice: the first battery builds every artifact, the second is
    // served from warm cache — so the probe exercises both cache
    // outcomes deterministically.
    puf.responseMatrix(challenges, chips);
    puf.responseMatrix(challenges, chips);
}

/**
 * The JIT: a lane-batched mismatch ensemble with native
 * kernels requested, twice — the first pass pays the kernel compiles,
 * the second is served from the warm kernel cache. Skipped (the
 * summary reports zero JIT coverage) when the host has no toolchain.
 */
void
runJitWorkload(const lang::LanguageRegistry &registry,
               const engine::Session &session)
{
    if (!expr::jitToolchainAvailable())
        return;
    const lang::Language &gmc = registry.language("gmc-tln");
    std::vector<engine::SystemPtr> systems;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        paradigms::tln::LineSpec spec;
        spec.sections = 8;
        spec.mismatchC = true;
        spec.mismatchGm = true;
        spec.seed = seed;
        dg::Graph graph = paradigms::tln::buildLine(gmc, spec);
        systems.push_back(session.compile(graph, gmc));
    }
    sim::EnsembleOptions options;
    options.sim.jit = true;
    options.sim.recordDt = 1e-10;
    session.runEnsemble(systems, 0.0, 1e-9, options);
    session.runEnsemble(systems, 0.0, 1e-9, options);
}

/** The SPICE sweep: grouping + factor/refactor + stepper cache. */
void
runSpiceWorkload(const lang::LanguageRegistry &registry,
                 const engine::Session &session)
{
    const lang::Language &gmc = registry.language("gmc-tln");
    std::vector<spice::MappedTln> mapped;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        paradigms::tln::LineSpec spec;
        spec.sections = 8;
        spec.mismatchC = true;
        spec.mismatchGm = true;
        spec.seed = seed;
        dg::Graph graph = paradigms::tln::buildLine(gmc, spec);
        validator::validateOrThrow(graph, gmc);
        mapped.push_back(spice::mapTlnToSpice(graph, gmc));
    }
    std::vector<const spice::Netlist *> netlists;
    for (const spice::MappedTln &m : mapped)
        netlists.push_back(&m.netlist);
    // Cold factors, then warm (cached steppers).
    session.runSweep(netlists, 0.0, 1e-9, 1e-11);
    session.runSweep(netlists, 0.0, 1e-9, 1e-11);
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/** A named histogram's p95, or 0 when it never recorded. */
double
histogramP95(const telemetry::MetricsSnapshot &snap,
             const std::string &name)
{
    for (const telemetry::MetricsSnapshot::Entry &entry : snap.entries) {
        if (entry.kind == telemetry::MetricsSnapshot::Kind::Histogram &&
            entry.name == name)
            return entry.p95;
    }
    return 0.0;
}

/** {"<histogram>": {"p50": ..., "p95": ..., "p99": ...}, ...} */
std::string
quantilesJson(const telemetry::MetricsSnapshot &snap)
{
    std::string json = "{";
    bool first = true;
    for (const telemetry::MetricsSnapshot::Entry &entry : snap.entries) {
        if (entry.kind != telemetry::MetricsSnapshot::Kind::Histogram)
            continue;
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + entry.name +
                "\": {\"p50\": " + std::to_string(entry.p50) +
                ", \"p95\": " + std::to_string(entry.p95) +
                ", \"p99\": " + std::to_string(entry.p99) + "}";
    }
    json += "}";
    return json;
}

/** Writes `text` to `path`; false (after a diagnostic) on failure. */
bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "metrics_probe: cannot write '" << path << "'\n";
        return false;
    }
    out << text;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath;
    std::string ledgerPath;
    std::string prometheusPath;
    std::optional<telemetry::TraceSession> trace;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            trace.emplace(argv[++i]);
        } else if (arg == "--ledger" && i + 1 < argc) {
            ledgerPath = argv[++i];
        } else if (arg == "--prometheus" && i + 1 < argc) {
            prometheusPath = argv[++i];
        } else {
            std::cerr << "usage: metrics_probe [--out summary.json]"
                         " [--trace out.trace.json]"
                         " [--ledger ledger.json]"
                         " [--prometheus out.prom]\n";
            return 2;
        }
    }

    telemetry::setMetricsEnabled(true);
    // A private cache isolates the probe's hit/miss arithmetic from
    // anything else the process ran.
    engine::ArtifactCache cache;
    telemetry::RunLedger ledger;
    engine::SessionOptions sessionOptions;
    sessionOptions.cache = &cache;
    if (!ledgerPath.empty())
        sessionOptions.ledger = &ledger;
    engine::Session session(sessionOptions);

    try {
        lang::LanguageRegistry registry =
            paradigms::makeStandardRegistry();
        runPufWorkload(registry, session);
        runSpiceWorkload(registry, session);
        runJitWorkload(registry, session);
    } catch (const support::ArkError &error) {
        std::cerr << "metrics_probe: " << error.what() << "\n";
        return 1;
    }

    if (!ledgerPath.empty() && !writeFile(ledgerPath, ledger.json() + "\n"))
        return 1;

    const telemetry::MetricsSnapshot snap = session.metricsSnapshot();
    if (!prometheusPath.empty() &&
        !writeFile(prometheusPath, snap.prometheus()))
        return 1;
    const double hits = snap.value("ark.cache.system_hits") +
                        snap.value("ark.cache.stepper_hits");
    const double misses = snap.value("ark.cache.system_misses") +
                          snap.value("ark.cache.stepper_misses");
    const double cacheHitRate = ratio(hits, hits + misses);
    const double occupancy = ratio(snap.value("ark.sim.block_lanes"),
                                   snap.value("ark.sim.block_width"));
    const double factors = snap.value("ark.spice.factors");
    const double refactors = snap.value("ark.spice.refactors");
    const double refactorShare = ratio(refactors, factors + refactors);
    // JIT coverage: kernel-cache hit rate, compiles paid, and the
    // p95 compile latency (all zero on hosts without a toolchain).
    const double jitHits = snap.value("ark.cache.kernel_hits");
    const double jitMisses = snap.value("ark.cache.kernel_misses");
    const double jitHitRate = ratio(jitHits, jitHits + jitMisses);
    const double jitCompiles = snap.value("ark.compile.jit_compiles");
    const double jitCompileP95 =
        histogramP95(snap, "ark.compile.jit_compile_ns");

    std::string json = "{\"cache_hit_rate\": " +
                       std::to_string(cacheHitRate) +
                       ",\n \"mean_lane_occupancy\": " +
                       std::to_string(occupancy) +
                       ",\n \"refactor_share\": " +
                       std::to_string(refactorShare) +
                       ",\n \"jit_hit_rate\": " +
                       std::to_string(jitHitRate) +
                       ",\n \"jit_compiles\": " +
                       std::to_string(jitCompiles) +
                       ",\n \"jit_compile_ns_p95\": " +
                       std::to_string(jitCompileP95) +
                       ",\n \"quantiles\": " + quantilesJson(snap) +
                       ",\n \"counters\": " + snap.json() + "}\n";

    if (outPath.empty()) {
        std::cout << json;
        return 0;
    }
    return writeFile(outPath, json) ? 0 : 1;
}
