/**
 * @file
 * Example: the transmission-line PUF case study (paper §2).
 *
 * Builds a challenge-configurable branched t-line in the gmc-tln
 * design space, interrogates three simulated "fabricated chips" with
 * the same challenges, and prints their responses — device-unique
 * because each chip carries its own Gm mismatch.
 *
 * `tln_puf --trace out.json` records the battery as a Chrome trace
 * (compile, lane-block, and cache spans; load in chrome://tracing or
 * Perfetto); `--metrics` dumps the engine telemetry counters to
 * stderr afterwards; `--ledger [out.json]` records per-instance
 * flight-recorder provenance (tier, lane width, block, steps) for
 * every ensemble the battery dispatches, written to the given file
 * or dumped to stderr; `--jit` serves the battery RHS from JIT
 * native kernels (bit-identical responses; silently interpreted when
 * the host has no C toolchain).
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "apps/puf.h"
#include "engine/session.h"
#include "paradigms/standard.h"
#include "support/ledger.h"
#include "support/telemetry.h"

namespace {

std::string
bitsToString(const std::vector<std::uint8_t> &bits)
{
    std::string out;
    out.reserve(bits.size());
    for (std::uint8_t b : bits)
        out += b ? '1' : '0';
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ark;

    bool metrics = false;
    bool jit = false;
    bool recordLedger = false;
    std::string ledgerPath;
    std::optional<telemetry::TraceSession> trace;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--metrics") {
            metrics = true;
            telemetry::setMetricsEnabled(true);
        } else if (arg == "--trace" && i + 1 < argc) {
            trace.emplace(argv[++i]);
        } else if (arg == "--jit") {
            jit = true;
        } else if (arg == "--ledger") {
            recordLedger = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                ledgerPath = argv[++i];
        } else {
            std::cerr << "usage: tln_puf [--metrics] [--trace out.json]"
                         " [--jit] [--ledger [out.json]]\n";
            return 2;
        }
    }

    lang::LanguageRegistry registry = paradigms::makeStandardRegistry();
    const lang::Language &gmc = registry.language("gmc-tln");

    apps::PufDesign design;
    design.mainSections = 16;
    design.numBranches = 4;
    design.stubSections = 4;
    design.responseBits = 32;
    design.jit = jit;
    // The session-level ledger captures every ensemble the battery
    // dispatches (results are bit-identical with and without it).
    telemetry::RunLedger ledger;
    engine::SessionOptions sessionOptions;
    if (recordLedger)
        sessionOptions.ledger = &ledger;
    apps::TlnPuf puf(gmc, design, engine::Session(sessionOptions));

    std::cout << "TLN PUF: " << design.mainSections
              << "-section line, " << design.numBranches
              << " switchable stubs, " << design.responseBits
              << "-bit responses\n\n";

    // The whole CRP block runs as one cached battery: each distinct
    // (challenge, chip) system compiles once through the engine's
    // artifact cache and all nine waveforms integrate in a single
    // ensemble dispatch.
    const std::vector<std::uint32_t> challenges = {0x0, 0x5, 0xF};
    const std::vector<std::uint64_t> chips = {1, 2, 3};
    auto crp = puf.responseMatrix(challenges, chips);
    for (std::size_t c = 0; c < challenges.size(); ++c) {
        std::cout << "challenge " << challenges[c] << ":\n";
        for (std::size_t chip = 0; chip < chips.size(); ++chip) {
            std::cout << "  chip " << chips[chip] << ": "
                      << bitsToString(crp[c][chip]) << "\n";
        }
    }

    std::cout << "\ninter-chip distances (challenge 5):\n";
    const auto &r1 = crp[1][0];
    const auto &r2 = crp[1][1];
    const auto &r3 = crp[1][2];
    std::cout << "  chip1 vs chip2: " << apps::hammingFraction(r1, r2)
              << "\n  chip1 vs chip3: " << apps::hammingFraction(r1, r3)
              << "\n  chip2 vs chip3: " << apps::hammingFraction(r2, r3)
              << "\n";

    std::cout << "\nre-measurement stability of chip 1 under 2mV "
                 "noise:\n";
    auto noisy = puf.response(5, 1, 0.002, 1234);
    std::cout << "  intra-chip distance: "
              << apps::hammingFraction(r1, noisy) << "\n";
    std::cout << "\n(ideal PUF: inter-chip ~0.5, intra-chip ~0)\n";

    if (metrics)
        std::cerr << puf.session().metricsSnapshot().str();
    if (recordLedger) {
        if (ledgerPath.empty()) {
            std::cerr << ledger.json() << "\n";
        } else {
            std::ofstream out(ledgerPath);
            if (!out) {
                std::cerr << "tln_puf: cannot write '" << ledgerPath
                          << "'\n";
                return 1;
            }
            out << ledger.json() << "\n";
            std::cerr << "tln_puf: ledger written to " << ledgerPath
                      << "\n";
        }
    }
    return 0;
}
