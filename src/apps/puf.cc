#include "apps/puf.h"

#include <unordered_map>

#include "lang/func.h"
#include "sim/sim.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/rng.h"

namespace ark::apps {

using lang::GraphBuilder;
using support::cat;
using support::SemaError;

TlnPuf::TlnPuf(const lang::Language &gmcTln, PufDesign design,
               engine::Session session)
    : lang_(gmcTln), design_(design), session_(session)
{
    if (!gmcTln.types().hasEdgeType("Em"))
        throw SemaError("TlnPuf needs the gmc-tln language");
    if (design_.numBranches < 1 || design_.numBranches > 16)
        throw SemaError("PUF challenge width must be 1..16");
    if (design_.mainSections < design_.numBranches + 1)
        throw SemaError("PUF main line too short for its branches");
    nominalCache_.resize(1u << design_.numBranches);
    nominalOnce_ =
        std::make_unique<std::once_flag[]>(1u << design_.numBranches);
    nominalReady_ =
        std::make_unique<std::atomic<bool>[]>(1u << design_.numBranches);
}

dg::Graph
TlnPuf::buildGraph(std::uint32_t challenge, std::uint64_t chipSeed) const
{
    if (challenge >= (1u << design_.numBranches))
        throw SemaError(cat("challenge ", challenge, " exceeds ",
                            design_.numBranches, " bits"));
    // chipSeed 0 = the nominal device: ideal E edges, no sampling.
    const bool mismatched = chipSeed != 0;
    const std::string eType = mismatched ? "Em" : "E";
    GraphBuilder builder(lang_, chipSeed);

    auto addV = [&](const std::string &name, double g) {
        builder.node(name, "V");
        builder.edge("self_" + name, "E", name, name);
        builder.attr(name, "c", 1e-9);
        builder.attr(name, "g", g);
    };
    auto addI = [&](const std::string &name) {
        builder.node(name, "I");
        builder.edge("self_" + name, "E", name, name);
        builder.attr(name, "l", 1e-9);
        builder.attr(name, "r", 0.0);
    };
    auto couple = [&](const std::string &name, const std::string &src,
                      const std::string &dst) {
        builder.edge(name, eType, src, dst);
        if (mismatched) {
            builder.attr(name, "ws", 1.0);
            builder.attr(name, "wt", 1.0);
        }
    };

    // Main line.
    addV("IN_V", 0.0);
    for (int k = 1; k < design_.mainSections; ++k)
        addV(cat("V_", k), 0.0);
    addV("OUT_V", 1.0);
    auto vName = [&](int k) -> std::string {
        if (k == 0)
            return "IN_V";
        if (k == design_.mainSections)
            return "OUT_V";
        return cat("V_", k);
    };
    for (int k = 0; k < design_.mainSections; ++k) {
        addI(cat("I_", k));
        couple(cat("EV_", k), vName(k), cat("I_", k));
        couple(cat("EI_", k), cat("I_", k), vName(k + 1));
    }

    // Switchable stubs at evenly spaced attachment points.
    for (int b = 0; b < design_.numBranches; ++b) {
        int attach = (b + 1) * design_.mainSections /
                     (design_.numBranches + 1);
        for (int k = 0; k < design_.stubSections; ++k) {
            addI(cat("SB", b, "_I", k));
            addV(cat("SB", b, "_V", k), 0.0);
            std::string from =
                k == 0 ? vName(attach) : cat("SB", b, "_V", k - 1);
            couple(cat("SB", b, "_EV", k), from, cat("SB", b, "_I", k));
            couple(cat("SB", b, "_EI", k), cat("SB", b, "_I", k),
                   cat("SB", b, "_V", k));
        }
        // The switch lives on the stub's first edge.
        builder.enable(cat("SB", b, "_EV0"),
                       ((challenge >> b) & 1u) != 0);
    }

    // Pulsed Norton input.
    builder.node("InpI_0", "InpI");
    expr::Lambda pulse;
    pulse.params = {"t0"};
    pulse.body = expr::Expr::call(
        "pulse", {expr::Expr::var("t0"), expr::Expr::real(0.0),
                  expr::Expr::real(design_.pulseWidth)});
    builder.attr("InpI_0", "fn", expr::Value::function(std::move(pulse)));
    builder.attr("InpI_0", "g", 1.0);
    couple("E_inp", "InpI_0", "IN_V");
    return builder.take();
}

std::vector<double>
TlnPuf::waveform(std::uint32_t challenge, std::uint64_t chipSeed) const
{
    return std::move(waveformBatch(challenge, {chipSeed}, 1).front());
}

namespace {

/** The ensemble controls every PUF battery integrates under. */
sim::EnsembleOptions
batteryOptions(const PufDesign &design, unsigned numThreads)
{
    sim::EnsembleOptions options;
    options.sim.method = design.simMethod;
    options.sim.dt = design.simDt > 0 ? design.simDt
                                      : design.windowEnd / 4000.0;
    options.sim.recordDt = design.windowEnd / 4000.0;
    // Every battery reads the response at OUT_V only.
    options.sim.save = {"OUT_V"};
    options.sim.jit = design.jit;
    options.numThreads = numThreads;
    return options;
}

} // namespace

std::vector<std::vector<double>>
TlnPuf::waveformBatch(std::uint32_t challenge,
                      const std::vector<std::uint64_t> &chipSeeds,
                      unsigned numThreads) const
{
    // Resolve every chip's compiled system through the session's
    // content-addressed cache (a warm battery skips build + ILP
    // validation + compile), then hand the battery to the ensemble
    // engine as shared immutable programs.
    std::vector<engine::SystemPtr> systems;
    systems.reserve(chipSeeds.size());
    for (std::uint64_t chipSeed : chipSeeds)
        systems.push_back(
            session_.compile(buildGraph(challenge, chipSeed), lang_));

    std::vector<sim::SimResult> results = session_.runEnsemble(
        systems, 0.0, design_.windowEnd,
        batteryOptions(design_, numThreads));

    std::vector<std::vector<double>> waveforms;
    waveforms.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
            throw support::SimError(cat("PUF chip ", chipSeeds[i],
                                        " simulation failed: ",
                                        results[i].failure->message));
        }
        int out = systems[i]->stateIndex("OUT_V", 0);
        waveforms.push_back(results[i].trajectory.resample(
            out, design_.windowStart, design_.windowEnd,
            static_cast<std::size_t>(design_.responseBits)));
    }
    return waveforms;
}

const std::vector<double> &
TlnPuf::nominalWaveform(std::uint32_t challenge) const
{
    if (challenge >= (1u << design_.numBranches))
        throw SemaError(cat("challenge ", challenge, " exceeds ",
                            design_.numBranches, " bits"));
    // call_once keeps concurrent response() callers safe: exactly one
    // thread simulates the nominal device, everyone else blocks until
    // the waveform is published (a failed attempt rethrows and leaves
    // the flag unset, so a later call may retry).
    std::call_once(nominalOnce_[challenge], [&] {
        nominalCache_[challenge] = waveform(challenge, 0);
        nominalReady_[challenge].store(true, std::memory_order_release);
    });
    return nominalCache_[challenge];
}

std::vector<std::uint8_t>
TlnPuf::response(std::uint32_t challenge, std::uint64_t chipSeed,
                 double noiseSigma, std::uint64_t noiseSeed) const
{
    return std::move(responseBatch(challenge, {chipSeed}, noiseSigma,
                                   {noiseSeed}, 1)
                         .front());
}

std::vector<std::vector<std::uint8_t>>
TlnPuf::responseBatch(std::uint32_t challenge,
                      const std::vector<std::uint64_t> &chipSeeds,
                      double noiseSigma,
                      const std::vector<std::uint64_t> &noiseSeeds,
                      unsigned numThreads) const
{
    support::panicIf(!noiseSeeds.empty() &&
                         noiseSeeds.size() != chipSeeds.size(),
                     "responseBatch: need one noise seed per chip");
    // One-challenge special case of the CRP matrix (a single-entry
    // challenge list is challenge-major trivially).
    return std::move(responseMatrix({challenge}, chipSeeds, noiseSigma,
                                    noiseSeeds, numThreads)
                         .front());
}

std::vector<std::vector<std::vector<std::uint8_t>>>
TlnPuf::responseMatrix(const std::vector<std::uint32_t> &challenges,
                       const std::vector<std::uint64_t> &chipSeeds,
                       double noiseSigma,
                       const std::vector<std::uint64_t> &noiseSeeds,
                       unsigned numThreads) const
{
    const std::size_t numChips = chipSeeds.size();
    support::panicIf(!noiseSeeds.empty() &&
                         noiseSeeds.size() !=
                             challenges.size() * numChips,
                     "responseMatrix: need one noise seed per "
                     "(challenge, chip)");
    // Per the contract, empty noiseSeeds means no noise: sharing one
    // implicit seed across chips would correlate every chip's noise
    // and bias any uniqueness metric computed from the batch.
    const bool applyNoise = noiseSigma > 0 && !noiseSeeds.empty();
    for (std::uint32_t challenge : challenges) {
        if (challenge >= (1u << design_.numBranches))
            throw SemaError(cat("challenge ", challenge, " exceeds ",
                                design_.numBranches, " bits"));
    }

    // Deduplicate the challenge list (first-occurrence order): a CRP
    // battery that revisits a challenge replicates the deterministic
    // waveform instead of re-simulating it — measurement noise is
    // applied per occurrence below, so repeated challenges still
    // yield independent noisy measurements.
    std::vector<std::uint32_t> distinct;
    std::unordered_map<std::uint32_t, std::size_t> distinctOf;
    for (std::uint32_t challenge : challenges)
        if (distinctOf.emplace(challenge, distinct.size()).second)
            distinct.push_back(challenge);

    // Compile every distinct (challenge, chip) system through the
    // cache, then integrate the whole battery — all challenges, all
    // chips, plus any nominal reference devices not yet cached — as
    // ONE ensemble dispatch. Chips of one challenge share a program
    // structure and lane-batch; distinct challenges form their own
    // lane groups within the same dispatch. Nominal devices are
    // structural singletons (ideal E edges), so they integrate as
    // one-lane blocks — bit-identical to a standalone waveform()
    // call, which is what publishes them below.
    std::vector<engine::SystemPtr> systems;
    systems.reserve(distinct.size() * numChips);
    for (std::uint32_t challenge : distinct)
        for (std::uint64_t chipSeed : chipSeeds)
            systems.push_back(
                session_.compile(buildGraph(challenge, chipSeed),
                                 lang_));
    const std::size_t numChipInstances = systems.size();
    std::vector<std::uint32_t> nominalNeeded;
    for (std::uint32_t challenge : distinct) {
        if (!nominalReady_[challenge].load(std::memory_order_relaxed)) {
            nominalNeeded.push_back(challenge);
            systems.push_back(
                session_.compile(buildGraph(challenge, 0), lang_));
        }
    }

    std::vector<sim::SimResult> results = session_.runEnsemble(
        systems, 0.0, design_.windowEnd,
        batteryOptions(design_, numThreads));

    std::vector<std::vector<double>> waveforms(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
            std::string who =
                i < numChipInstances
                    ? cat("chip ", chipSeeds[i % numChips],
                          " (challenge ", distinct[i / numChips], ")")
                    : cat("nominal device (challenge ",
                          nominalNeeded[i - numChipInstances], ")");
            throw support::SimError(cat("PUF ", who,
                                        " simulation failed: ",
                                        results[i].failure->message));
        }
        int out = systems[i]->stateIndex("OUT_V", 0);
        waveforms[i] = results[i].trajectory.resample(
            out, design_.windowStart, design_.windowEnd,
            static_cast<std::size_t>(design_.responseBits));
    }

    // Publish the batch-simulated nominals; a concurrent caller that
    // beat us through nominalWaveform() wins the call_once and our
    // copy is simply dropped.
    for (std::size_t k = 0; k < nominalNeeded.size(); ++k) {
        std::uint32_t challenge = nominalNeeded[k];
        std::call_once(nominalOnce_[challenge], [&] {
            nominalCache_[challenge] =
                std::move(waveforms[numChipInstances + k]);
            nominalReady_[challenge].store(true,
                                           std::memory_order_release);
        });
    }

    std::vector<std::vector<std::vector<std::uint8_t>>> responses(
        challenges.size());
    for (std::size_t c = 0; c < challenges.size(); ++c) {
        const std::vector<double> &nominal =
            nominalWaveform(challenges[c]);
        const std::size_t base = distinctOf.at(challenges[c]) * numChips;
        responses[c].reserve(numChips);
        for (std::size_t chip = 0; chip < numChips; ++chip) {
            const std::vector<double> &measured = waveforms[base + chip];
            support::Rng noise(
                applyNoise ? noiseSeeds[c * numChips + chip] : 0);
            std::vector<std::uint8_t> bits;
            bits.reserve(measured.size());
            for (std::size_t i = 0; i < measured.size(); ++i) {
                double sample = measured[i];
                if (applyNoise)
                    sample += noise.gaussian(0.0, noiseSigma);
                bits.push_back(sample > nominal[i] ? 1 : 0);
            }
            responses[c].push_back(std::move(bits));
        }
    }
    return responses;
}

double
hammingFraction(const std::vector<std::uint8_t> &a,
                const std::vector<std::uint8_t> &b)
{
    support::panicIf(a.size() != b.size() || a.empty(),
                     "hammingFraction: size mismatch");
    std::size_t diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        diff += a[i] != b[i];
    return static_cast<double>(diff) / static_cast<double>(a.size());
}

PufMetrics
evaluatePuf(const TlnPuf &puf, int numChips, int numChallenges,
            double noiseSigma, std::uint64_t seed)
{
    support::Rng rng(seed);
    std::vector<std::uint32_t> challenges;
    std::uint32_t challengeSpace =
        1u << puf.design().numBranches;
    for (int i = 0; i < numChallenges; ++i) {
        challenges.push_back(static_cast<std::uint32_t>(
            rng.uniformInt(0, challengeSpace - 1)));
    }

    // Responses per (challenge, chip); chip seeds start at 1 (0 is
    // the nominal reference device). The whole CRP matrix runs as one
    // cached battery: distinct challenges compile once each and the
    // full (challenge, chip) ensemble integrates in a single
    // dispatch — repeated challenge draws cost nothing extra.
    std::vector<std::uint64_t> chipSeeds;
    for (int chip = 1; chip <= numChips; ++chip)
        chipSeeds.push_back(static_cast<std::uint64_t>(chip));
    std::vector<std::vector<std::vector<std::uint8_t>>> responses =
        puf.responseMatrix(challenges, chipSeeds);

    double interSum = 0.0;
    int interCount = 0;
    for (std::size_t ci = 0; ci < challenges.size(); ++ci) {
        for (int a = 0; a < numChips; ++a) {
            for (int b = a + 1; b < numChips; ++b) {
                interSum += hammingFraction(
                    responses[ci][static_cast<std::size_t>(a)],
                    responses[ci][static_cast<std::size_t>(b)]);
                ++interCount;
            }
        }
    }

    // Re-measurement pass as one noisy CRP matrix. Noise seeds are
    // drawn per (challenge, chip) in the same serial order as the
    // historical per-challenge loop — responseMatrix's flattened
    // contract is exactly that challenge-major order — so the metrics
    // are unchanged by the batched evaluation.
    double intraSum = 0.0;
    int intraCount = 0;
    std::vector<std::uint64_t> noiseSeeds;
    noiseSeeds.reserve(challenges.size() * chipSeeds.size());
    for (std::size_t ci = 0; ci < challenges.size(); ++ci)
        for (int chip = 1; chip <= numChips; ++chip)
            noiseSeeds.push_back(rng.deriveSeed());
    auto remeasured = puf.responseMatrix(challenges, chipSeeds,
                                         noiseSigma, noiseSeeds);
    for (std::size_t ci = 0; ci < challenges.size(); ++ci) {
        for (int chip = 1; chip <= numChips; ++chip) {
            intraSum += hammingFraction(
                responses[ci][static_cast<std::size_t>(chip - 1)],
                remeasured[ci][static_cast<std::size_t>(chip - 1)]);
            ++intraCount;
        }
    }

    double challengeSum = 0.0;
    int challengeCount = 0;
    for (int chip = 1; chip <= numChips; ++chip) {
        for (std::size_t a = 0; a < challenges.size(); ++a) {
            for (std::size_t b = a + 1; b < challenges.size(); ++b) {
                if (challenges[a] == challenges[b])
                    continue;
                challengeSum += hammingFraction(
                    responses[a][static_cast<std::size_t>(chip - 1)],
                    responses[b][static_cast<std::size_t>(chip - 1)]);
                ++challengeCount;
            }
        }
    }

    PufMetrics metrics;
    metrics.uniqueness = interCount ? interSum / interCount : 0.0;
    metrics.reliability = intraCount ? intraSum / intraCount : 0.0;
    metrics.challengeSensitivity =
        challengeCount ? challengeSum / challengeCount : 0.0;
    return metrics;
}

} // namespace ark::apps
