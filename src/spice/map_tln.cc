#include "spice/map_tln.h"

#include "expr/eval.h"
#include "expr/fold.h"
#include "expr/fusedtape.h"
#include "support/error.h"
#include "support/logging.h"

namespace ark::spice {

using support::cat;
using support::SemaError;

namespace {

/** Classification of a TLN-family node. */
enum class TlnKind { V, I, InpV, InpI };

TlnKind
classify(const dg::TypeTable &types, const std::string &type)
{
    if (types.isNodeAncestor("V", type))
        return TlnKind::V;
    if (types.isNodeAncestor("I", type))
        return TlnKind::I;
    if (types.isNodeAncestor("InpV", type))
        return TlnKind::InpV;
    if (types.isNodeAncestor("InpI", type))
        return TlnKind::InpI;
    throw SemaError(cat("node type '", type,
                        "' is not part of the TLN family"));
}

bool
isState(TlnKind kind)
{
    return kind == TlnKind::V || kind == TlnKind::I;
}

/** Compiles a lambda attribute into a time waveform. */
Waveform
waveformOf(const expr::Value &fnValue)
{
    const expr::Lambda &fn = fnValue.asFunction();
    if (fn.params.size() != 1)
        throw SemaError("TLN input functions take one argument (time)");
    expr::ExprPtr body = expr::applyLambda(fn, {expr::Expr::time()});
    expr::FusedTape tape = expr::FusedTape::compile({expr::fold(body)});
    return [tape](double t) {
        // One scratch file per thread, grown to the largest waveform:
        // a source is evaluated every SPICE step, and the program
        // writes each register before reading it.
        thread_local std::vector<double> regs;
        const auto numRegs = static_cast<std::size_t>(tape.numRegs());
        if (regs.size() < numRegs)
            regs.resize(numRegs);
        double out = 0.0;
        tape.evalInto(nullptr, t, &out, regs.data());
        return out;
    };
}

/** Edge weights: Em carries sampled ws/wt, E is the ideal 1/1. */
std::pair<double, double>
edgeWeights(const dg::Graph &graph, dg::EdgeId id)
{
    const dg::EdgeTypeDef &type = graph.edgeTypeOf(id);
    if (type.findAttr("ws")) {
        return {graph.edgeAttr(id, "ws").asReal(),
                graph.edgeAttr(id, "wt").asReal()};
    }
    return {1.0, 1.0};
}

} // namespace

MappedTln
mapTlnToSpice(const dg::Graph &graph, const lang::Language &lang)
{
    if (!lang.isDescendantOf("tln")) {
        throw SemaError(cat("language '", lang.name(),
                            "' does not descend from tln"));
    }
    const dg::TypeTable &types = graph.types();

    MappedTln out;
    // Circuit nodes for V/I state nodes; capacitors from c/l.
    for (std::size_t i = 0; i < graph.numNodes(); ++i) {
        dg::NodeId id{static_cast<std::int32_t>(i)};
        const dg::Node &node = graph.node(id);
        TlnKind kind = classify(types, node.type);
        if (!isState(kind))
            continue;
        int circuitNode = out.netlist.addNode(node.name);
        out.circuitNodeOf.emplace(node.name, circuitNode);
        double cap = kind == TlnKind::V
                         ? graph.nodeAttr(id, "c").asReal()
                         : graph.nodeAttr(id, "l").asReal();
        out.netlist.capacitor(cat("C_", node.name), circuitNode, kGround,
                              cap);
    }

    // Edges: losses, couplings, and sources.
    for (std::size_t i = 0; i < graph.numEdges(); ++i) {
        dg::EdgeId id{static_cast<std::int32_t>(i)};
        const dg::Edge &edge = graph.edge(id);
        if (!edge.enabled)
            continue;
        const dg::Node &src = graph.node(edge.src);
        const dg::Node &dst = graph.node(edge.dst);
        TlnKind srcKind = classify(types, src.type);

        if (edge.isSelf()) {
            // Loss self edge: conductance g (V) or r (I) to ground.
            if (!isState(srcKind))
                throw SemaError(cat("self edge '", edge.name,
                                    "' on a non-state node"));
            double loss = srcKind == TlnKind::V
                              ? graph.nodeAttr(edge.src, "g").asReal()
                              : graph.nodeAttr(edge.src, "r").asReal();
            if (loss > 0.0) {
                out.netlist.resistor(cat("R_", src.name),
                                     out.circuitNodeOf.at(src.name),
                                     kGround, 1.0 / loss);
            }
            continue;
        }

        TlnKind dstKind = classify(types, dst.type);
        if (!isState(dstKind)) {
            throw SemaError(cat("edge '", edge.name,
                                "' drives a non-state node"));
        }
        int dstNode = out.circuitNodeOf.at(dst.name);
        auto [ws, wt] = edgeWeights(graph, id);

        if (isState(srcKind)) {
            int srcNode = out.circuitNodeOf.at(src.name);
            // dst gains +wt * v_src: VCCS from ground into dst.
            out.netlist.vccs(cat("Gt_", edge.name), kGround, dstNode,
                             srcNode, kGround, wt);
            // src loses ws * v_dst: VCCS out of src.
            out.netlist.vccs(cat("Gs_", edge.name), srcNode, kGround,
                             dstNode, kGround, ws);
            continue;
        }

        // Input sources (Norton for InpI, Thevenin-as-Norton for InpV).
        Waveform fn = waveformOf(graph.nodeAttr(edge.src, "fn"));
        double scale; // multiplies both the source and the conductance
        double conductance;
        if (srcKind == TlnKind::InpI) {
            double g = graph.nodeAttr(edge.src, "g").asReal();
            if (dstKind == TlnKind::V) {
                // t <= wt*(-g*v + fn)/c
                scale = wt;
                conductance = wt * g;
            } else {
                // t <= wt*(-v + fn)/(g*l)
                if (g <= 0.0) {
                    throw SemaError(cat("InpI '", src.name,
                                        "' feeding an I node needs g>0"));
                }
                scale = wt / g;
                conductance = wt / g;
            }
        } else { // InpV
            double r = graph.nodeAttr(edge.src, "r").asReal();
            if (dstKind == TlnKind::V) {
                // t <= wt*(-v + fn)/(r*c)
                if (r <= 0.0) {
                    throw SemaError(cat("InpV '", src.name,
                                        "' feeding a V node needs r>0"));
                }
                scale = wt / r;
                conductance = wt / r;
            } else {
                // t <= wt*(-r*v + fn)/l
                scale = wt;
                conductance = wt * r;
            }
        }
        if (conductance > 0.0) {
            out.netlist.resistor(cat("Rin_", edge.name), dstNode,
                                 kGround, 1.0 / conductance);
        }
        double amp = scale;
        out.netlist.currentSource(
            cat("Iin_", edge.name), kGround, dstNode, 0.0,
            [fn, amp](double t) { return amp * fn(t); });
    }
    return out;
}

} // namespace ark::spice
