#include "paradigms/obc.h"

#include <cmath>
#include <numbers>

#include "lang/func.h"
#include "support/error.h"
#include "support/logging.h"

namespace ark::paradigms::obc {

using lang::GraphBuilder;
using support::cat;
using support::SemaError;

const std::string &
obcSource()
{
    // Figure 12a verbatim.
    static const std::string source = R"ARK(
lang obc {
    ntyp(1,sum) Osc {};
    etyp Cpl {attr k=real[-8,8]};
    prod(e:Cpl,s:Osc->t:Osc) s <= -1.6e9*e.k*sin(var(s)-var(t));
    prod(e:Cpl,s:Osc->t:Osc) t <= -1.6e9*e.k*sin(-var(s)+var(t));
    prod(e:Cpl,s:Osc->s:Osc) s <= -1e9*sin(2*var(s));
}
)ARK";
    return source;
}

const std::string &
ofsObcSource()
{
    // Figure 12b verbatim (offset sigma 0.02; see dg/datatype.h on
    // the mm(s0,s1) convention).
    static const std::string source = R"ARK(
lang ofs-obc inherits obc {
    etyp Cpl_ofs inherit Cpl {attr k=real[-8,8],
                              attr offset=real[0,0] mm(0.02,0)};
    prod(e:Cpl_ofs,s:Osc->t:Osc)
        s <= -1.6e9*e.k*(e.offset+sin(var(s)-var(t)));
    prod(e:Cpl_ofs,s:Osc->t:Osc)
        t <= -1.6e9*e.k*(e.offset+sin(-var(s)+var(t)));
}
)ARK";
    return source;
}

const std::string &
interconObcSource()
{
    // Figure 13 verbatim.
    static const std::string source = R"ARK(
lang intercon-obc inherits obc {
    ntyp(1,sum) Osc_G0 inherit Osc {};
    ntyp(1,sum) Osc_G1 inherit Osc {};
    etyp Cpl_l inherit Cpl {attr k=real[-8,8], attr cost=int[1,1]};
    etyp Cpl_g inherit Cpl {attr k=real[-8,8], attr cost=int[10,10]};

    cstr Osc_G0 {acc[match(1,1,Cpl_l,Osc_G0),
        match(0,inf,Cpl_l,Osc_G0->[Osc_G0]),
        match(0,inf,Cpl_l,[Osc_G0]->Osc_G0),
        match(0,inf,Cpl_g,Osc_G0->[Osc]),
        match(0,inf,Cpl_g,[Osc]->Osc_G0)]}
    cstr Osc_G1 {acc[match(1,1,Cpl_l,Osc_G1),
        match(0,inf,Cpl_l,Osc_G1->[Osc_G1]),
        match(0,inf,Cpl_l,[Osc_G1]->Osc_G1),
        match(0,inf,Cpl_g,Osc_G1->[Osc]),
        match(0,inf,Cpl_g,[Osc]->Osc_G1)]}
}
)ARK";
    return source;
}

void
registerAll(lang::LanguageRegistry &registry)
{
    registry.addProgram(obcSource());
    registry.addProgram(ofsObcSource());
    registry.addProgram(interconObcSource());
}

std::string
oscName(int v)
{
    return cat("OSC_", v);
}

namespace {

void
checkInstance(const MaxcutInstance &instance)
{
    if (instance.numVertices < 1)
        throw SemaError("max-cut instance needs at least one vertex");
    for (const auto &[a, b] : instance.edges) {
        if (a < 0 || b < 0 || a >= instance.numVertices ||
            b >= instance.numVertices || a == b) {
            throw SemaError(cat("bad max-cut edge (", a, ",", b, ")"));
        }
    }
}

void
addOscillators(GraphBuilder &builder, const MaxcutInstance &instance,
               const std::vector<double> &initPhases,
               const std::string &oscType, const std::string &selfType)
{
    for (int v = 0; v < instance.numVertices; ++v) {
        builder.node(oscName(v), oscType);
        if (!initPhases.empty())
            builder.init(oscName(v), 0,
                         initPhases[static_cast<std::size_t>(v)]);
        // Sub-harmonic injection locking (the -C2 sin(2 phi) term).
        std::string self = cat("SHIL_", v);
        builder.edge(self, selfType, oscName(v), oscName(v));
        builder.attr(self, "k", 1.0);
        if (selfType == "Cpl_l")
            builder.attr(self, "cost", expr::Value::integer(1));
    }
}

} // namespace

dg::Graph
buildMaxcut(const lang::Language &language, const MaxcutInstance &instance,
            const MaxcutSpec &spec)
{
    checkInstance(instance);
    if (!spec.initPhases.empty() &&
        static_cast<int>(spec.initPhases.size()) != instance.numVertices) {
        throw SemaError("initPhases size must match the vertex count");
    }
    const std::string cplType = spec.withOffset ? "Cpl_ofs" : "Cpl";
    if (spec.withOffset && !language.types().hasEdgeType("Cpl_ofs")) {
        throw SemaError(cat("language '", language.name(),
                            "' lacks Cpl_ofs; use ofs-obc"));
    }

    GraphBuilder builder(language, spec.seed);
    addOscillators(builder, instance, spec.initPhases, "Osc", "Cpl");
    int index = 0;
    for (const auto &[a, b] : instance.edges) {
        std::string name = cat("CPL_", index++);
        builder.edge(name, cplType, oscName(a), oscName(b));
        builder.attr(name, "k", spec.coupling);
        if (spec.withOffset)
            builder.attr(name, "offset", 0.0);
    }
    return builder.take();
}

std::optional<std::vector<int>>
decodePartition(const std::vector<double> &phases, double d)
{
    const double pi = std::numbers::pi;
    std::vector<int> partition;
    partition.reserve(phases.size());
    for (double phase : phases) {
        // Fold into [0, 2pi).
        double folded = std::fmod(phase, 2.0 * pi);
        if (folded < 0)
            folded += 2.0 * pi;
        double dist0 = std::min(folded, 2.0 * pi - folded);
        double distPi = std::fabs(folded - pi);
        if (dist0 <= d) {
            partition.push_back(0);
        } else if (distPi <= d) {
            partition.push_back(1);
        } else {
            return std::nullopt; // "unknown" oscillator
        }
    }
    return partition;
}

int
cutSize(const MaxcutInstance &instance, const std::vector<int> &partition)
{
    int cut = 0;
    for (const auto &[a, b] : instance.edges) {
        if (partition[static_cast<std::size_t>(a)] !=
            partition[static_cast<std::size_t>(b)]) {
            ++cut;
        }
    }
    return cut;
}

int
bruteForceMaxCut(const MaxcutInstance &instance)
{
    checkInstance(instance);
    support::panicIf(instance.numVertices > 20,
                     "bruteForceMaxCut: instance too large");
    int best = 0;
    for (std::uint32_t mask = 0;
         mask < (1u << instance.numVertices); ++mask) {
        int cut = 0;
        for (const auto &[a, b] : instance.edges) {
            bool sideA = (mask >> a) & 1u;
            bool sideB = (mask >> b) & 1u;
            cut += sideA != sideB;
        }
        best = std::max(best, cut);
    }
    return best;
}

dg::Graph
buildGrouped(const lang::Language &language, const MaxcutInstance &instance,
             const GroupedSpec &spec)
{
    checkInstance(instance);
    if (static_cast<int>(spec.groups.size()) != instance.numVertices)
        throw SemaError("groups size must match the vertex count");
    if (!language.types().hasNodeType("Osc_G0"))
        throw SemaError("grouped networks need the intercon-obc language");

    GraphBuilder builder(language, spec.seed);
    for (int v = 0; v < instance.numVertices; ++v) {
        int group = spec.groups[static_cast<std::size_t>(v)];
        if (group != 0 && group != 1)
            throw SemaError(cat("vertex ", v, " has invalid group ",
                                group));
        builder.node(oscName(v), group == 0 ? "Osc_G0" : "Osc_G1");
        if (!spec.initPhases.empty())
            builder.init(oscName(v), 0,
                         spec.initPhases[static_cast<std::size_t>(v)]);
        std::string self = cat("SHIL_", v);
        builder.edge(self, "Cpl_l", oscName(v), oscName(v));
        builder.attr(self, "k", 1.0);
        builder.attr(self, "cost", expr::Value::integer(1));
    }
    int index = 0;
    for (const auto &[a, b] : instance.edges) {
        bool local = spec.groups[static_cast<std::size_t>(a)] ==
                     spec.groups[static_cast<std::size_t>(b)];
        std::string name = cat("CPL_", index++);
        builder.edge(name, local ? "Cpl_l" : "Cpl_g", oscName(a),
                     oscName(b));
        builder.attr(name, "k", spec.coupling);
        builder.attr(name, "cost",
                     expr::Value::integer(local ? 1 : 10));
    }
    return builder.take();
}

dg::Graph
buildGroupedIllegal(const lang::Language &language)
{
    if (!language.types().hasNodeType("Osc_G0"))
        throw SemaError("grouped networks need the intercon-obc language");
    GraphBuilder builder(language, 0);
    builder.node(oscName(0), "Osc_G0");
    builder.node(oscName(1), "Osc_G1");
    for (int v = 0; v < 2; ++v) {
        std::string self = cat("SHIL_", v);
        builder.edge(self, "Cpl_l", oscName(v), oscName(v));
        builder.attr(self, "k", 1.0);
        builder.attr(self, "cost", expr::Value::integer(1));
    }
    // Cross-group connection using a *local* edge: must be rejected.
    builder.edge("CPL_bad", "Cpl_l", oscName(0), oscName(1));
    builder.attr("CPL_bad", "k", -1.0);
    builder.attr("CPL_bad", "cost", expr::Value::integer(1));
    return builder.take();
}

std::int64_t
interconnectCost(const dg::Graph &graph)
{
    std::int64_t total = 0;
    for (std::size_t i = 0; i < graph.numEdges(); ++i) {
        dg::EdgeId id{static_cast<std::int32_t>(i)};
        const dg::Edge &edge = graph.edge(id);
        if (graph.edgeTypeOf(id).findAttr("cost") && edge.enabled &&
            !edge.isSelf()) {
            total += graph.edgeAttr(id, "cost").asInt();
        }
    }
    return total;
}

} // namespace ark::paradigms::obc
