#include "dg/graph.h"

#include <cmath>
#include <sstream>

#include "support/error.h"
#include "support/logging.h"

namespace ark::dg {

using support::cat;
using support::SemaError;
using support::TypeError;

Graph::Graph(const TypeTable *types, std::string langName)
    : types_(types), langName_(std::move(langName))
{
    support::panicIf(types_ == nullptr, "Graph requires a type table");
}

NodeId
Graph::addNode(const std::string &name, const std::string &type)
{
    if (nodeByName_.count(name) || edgeByName_.count(name))
        throw SemaError(cat("duplicate element name '", name, "'"));
    const NodeTypeDef &def = types_->nodeType(type);
    Node node;
    node.name = name;
    node.type = type;
    node.inits.resize(static_cast<std::size_t>(def.order));
    // Attributes and inits pinned at declaration are filled in eagerly.
    for (const auto &attr : def.attrs) {
        if (attr.fixedValue) {
            node.attrs.emplace(attr.name,
                               AttrValue{*attr.fixedValue,
                                         *attr.fixedValue});
        }
    }
    for (const auto &init : def.inits) {
        if (init.fixedValue && init.derivative < def.order)
            node.inits[static_cast<std::size_t>(init.derivative)] =
                *init.fixedValue;
    }
    auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(std::move(node));
    adjacency_.emplace_back();
    nodeByName_.emplace(name, id);
    return NodeId{id};
}

EdgeId
Graph::addEdge(const std::string &name, const std::string &type,
               NodeId src, NodeId dst)
{
    if (nodeByName_.count(name) || edgeByName_.count(name))
        throw SemaError(cat("duplicate element name '", name, "'"));
    if (!src.valid() || src.index >= static_cast<std::int32_t>(nodes_.size()))
        throw SemaError(cat("edge '", name, "' has an invalid source"));
    if (!dst.valid() || dst.index >= static_cast<std::int32_t>(nodes_.size()))
        throw SemaError(cat("edge '", name, "' has an invalid destination"));
    const EdgeTypeDef &def = types_->edgeType(type);
    Edge edge;
    edge.name = name;
    edge.type = type;
    edge.src = src;
    edge.dst = dst;
    for (const auto &attr : def.attrs) {
        if (attr.fixedValue) {
            edge.attrs.emplace(attr.name,
                               AttrValue{*attr.fixedValue,
                                         *attr.fixedValue});
        }
    }
    auto id = static_cast<std::int32_t>(edges_.size());
    edges_.push_back(std::move(edge));
    edgeByName_.emplace(name, id);
    adjacency_[static_cast<std::size_t>(src.index)].push_back(id);
    if (dst != src)
        adjacency_[static_cast<std::size_t>(dst.index)].push_back(id);
    return EdgeId{id};
}

namespace {

/**
 * The stored pair for `nominal` written into a slot of `type`, drawing
 * the mismatch from `rng`. `describe()` names the slot ("attribute
 * 'CPL_0.k'"); it is called only to build the TypeError message, so a
 * write that fits formats nothing.
 */
template <typename Describe>
AttrValue
makeAttrValue(const DataType &type, const expr::Value &nominal,
              support::Rng *rng, const Describe &describe)
{
    if (!type.contains(nominal)) {
        throw TypeError(cat("value ", nominal.str(), " does not fit ",
                            describe(), " of type ", type.str()));
    }
    AttrValue out{nominal, nominal};
    if (type.hasMismatch() && nominal.isNumeric() && rng) {
        double x = nominal.asReal();
        double sigma = type.mismatch()->s0 +
                       type.mismatch()->s1 * std::fabs(x);
        out.effective = expr::Value::real(rng->gaussian(x, sigma));
    } else if (type.isReal() && nominal.isInt()) {
        // Normalize int literals written into real attributes.
        out.effective = expr::Value::real(nominal.asReal());
    }
    return out;
}

} // namespace

void
Graph::setNodeAttr(NodeId id, const std::string &attr,
                   const expr::Value &nominal, support::Rng *rng)
{
    Node &n = nodes_.at(static_cast<std::size_t>(id.index));
    const NodeTypeDef &def = types_->nodeType(n.type);
    const AttrDef *adef = def.findAttr(attr);
    if (!adef) {
        throw SemaError(cat("node type '", n.type,
                            "' has no attribute '", attr, "'"));
    }
    n.attrs[attr] = makeAttrValue(adef->type, nominal, rng, [&] {
        return cat("attribute '", n.name, ".", attr, "'");
    });
}

void
Graph::setEdgeAttr(EdgeId id, const std::string &attr,
                   const expr::Value &nominal, support::Rng *rng)
{
    Edge &e = edges_.at(static_cast<std::size_t>(id.index));
    const EdgeTypeDef &def = types_->edgeType(e.type);
    const AttrDef *adef = def.findAttr(attr);
    if (!adef) {
        throw SemaError(cat("edge type '", e.type,
                            "' has no attribute '", attr, "'"));
    }
    e.attrs[attr] = makeAttrValue(adef->type, nominal, rng, [&] {
        return cat("attribute '", e.name, ".", attr, "'");
    });
}

void
Graph::setInit(NodeId id, int derivative, const expr::Value &value,
               support::Rng *rng)
{
    Node &n = nodes_.at(static_cast<std::size_t>(id.index));
    const NodeTypeDef &def = types_->nodeType(n.type);
    if (derivative < 0 || derivative >= def.order) {
        throw SemaError(cat("node '", n.name, "' of order ", def.order,
                            " has no derivative ", derivative));
    }
    const InitDef *idef = def.findInit(derivative);
    if (!idef) {
        throw SemaError(cat("node type '", n.type,
                            "' lacks an init(", derivative,
                            ") declaration"));
    }
    AttrValue av = makeAttrValue(idef->type, value, rng, [&] {
        return cat("init(", derivative, ") of '", n.name, "'");
    });
    n.inits[static_cast<std::size_t>(derivative)] = av.effective;
}

void
Graph::setEnabled(EdgeId id, bool enabled)
{
    Edge &e = edges_.at(static_cast<std::size_t>(id.index));
    const EdgeTypeDef &def = types_->edgeType(e.type);
    if (def.fixed) {
        throw SemaError(cat("edge '", e.name, "' of fixed type '",
                            e.type, "' cannot be switched"));
    }
    e.enabled = enabled;
    e.switchable = true;
}

std::optional<NodeId>
Graph::findNode(const std::string &name) const
{
    auto it = nodeByName_.find(name);
    if (it == nodeByName_.end())
        return std::nullopt;
    return NodeId{it->second};
}

std::optional<EdgeId>
Graph::findEdge(const std::string &name) const
{
    auto it = edgeByName_.find(name);
    if (it == edgeByName_.end())
        return std::nullopt;
    return EdgeId{it->second};
}

const Node &
Graph::node(NodeId id) const
{
    return nodes_.at(static_cast<std::size_t>(id.index));
}

const Edge &
Graph::edge(EdgeId id) const
{
    return edges_.at(static_cast<std::size_t>(id.index));
}

const expr::Value &
Graph::nodeAttr(NodeId id, const std::string &attr) const
{
    const Node &n = node(id);
    auto it = n.attrs.find(attr);
    if (it == n.attrs.end()) {
        throw SemaError(cat("attribute '", n.name, ".", attr,
                            "' was never assigned"));
    }
    return it->second.effective;
}

const expr::Value &
Graph::edgeAttr(EdgeId id, const std::string &attr) const
{
    const Edge &e = edge(id);
    auto it = e.attrs.find(attr);
    if (it == e.attrs.end()) {
        throw SemaError(cat("attribute '", e.name, ".", attr,
                            "' was never assigned"));
    }
    return it->second.effective;
}

const expr::Value &
Graph::nodeAttrNominal(NodeId id, const std::string &attr) const
{
    const Node &n = node(id);
    auto it = n.attrs.find(attr);
    if (it == n.attrs.end()) {
        throw SemaError(cat("attribute '", n.name, ".", attr,
                            "' was never assigned"));
    }
    return it->second.nominal;
}

expr::Value
Graph::initValue(NodeId id, int derivative) const
{
    const Node &n = node(id);
    if (derivative < 0 ||
        derivative >= static_cast<int>(n.inits.size())) {
        return expr::Value::real(0.0);
    }
    const auto &slot = n.inits[static_cast<std::size_t>(derivative)];
    return slot ? *slot : expr::Value::real(0.0);
}

const NodeTypeDef &
Graph::nodeTypeOf(NodeId id) const
{
    return types_->nodeType(node(id).type);
}

const EdgeTypeDef &
Graph::edgeTypeOf(EdgeId id) const
{
    return types_->edgeType(edge(id).type);
}

std::vector<EdgeId>
Graph::incomingEdges(NodeId id) const
{
    std::vector<EdgeId> out;
    for (std::int32_t eidx : adjacency_.at(static_cast<std::size_t>(id.index))) {
        const Edge &e = edges_[static_cast<std::size_t>(eidx)];
        if (e.enabled && !e.isSelf() && e.dst == id)
            out.push_back(EdgeId{eidx});
    }
    return out;
}

std::vector<EdgeId>
Graph::outgoingEdges(NodeId id) const
{
    std::vector<EdgeId> out;
    for (std::int32_t eidx : adjacency_.at(static_cast<std::size_t>(id.index))) {
        const Edge &e = edges_[static_cast<std::size_t>(eidx)];
        if (e.enabled && !e.isSelf() && e.src == id)
            out.push_back(EdgeId{eidx});
    }
    return out;
}

std::vector<EdgeId>
Graph::selfEdges(NodeId id) const
{
    std::vector<EdgeId> out;
    for (std::int32_t eidx : adjacency_.at(static_cast<std::size_t>(id.index))) {
        const Edge &e = edges_[static_cast<std::size_t>(eidx)];
        if (e.enabled && e.isSelf())
            out.push_back(EdgeId{eidx});
    }
    return out;
}

std::vector<EdgeId>
Graph::edgesOf(NodeId id) const
{
    std::vector<EdgeId> out;
    for (std::int32_t eidx : adjacency_.at(static_cast<std::size_t>(id.index))) {
        const Edge &e = edges_[static_cast<std::size_t>(eidx)];
        if (e.enabled)
            out.push_back(EdgeId{eidx});
    }
    return out;
}

std::vector<EdgeId>
Graph::allEdgesOf(NodeId id) const
{
    std::vector<EdgeId> out;
    for (std::int32_t eidx : adjacency_.at(static_cast<std::size_t>(id.index)))
        out.push_back(EdgeId{eidx});
    return out;
}

void
Graph::checkComplete() const
{
    for (const auto &n : nodes_) {
        const NodeTypeDef &def = types_->nodeType(n.type);
        for (const auto &attr : def.attrs) {
            if (!n.attrs.count(attr.name)) {
                throw SemaError(cat("attribute '", n.name, ".", attr.name,
                                    "' was never assigned"));
            }
        }
        for (int d = 0; d < def.order; ++d) {
            if (!n.inits[static_cast<std::size_t>(d)].has_value() &&
                !def.findInit(d)) {
                throw SemaError(cat("node '", n.name,
                                    "' is missing init(", d, ")"));
            }
        }
    }
    for (const auto &e : edges_) {
        const EdgeTypeDef &def = types_->edgeType(e.type);
        for (const auto &attr : def.attrs) {
            if (!e.attrs.count(attr.name)) {
                throw SemaError(cat("attribute '", e.name, ".", attr.name,
                                    "' was never assigned"));
            }
        }
    }
}

std::string
Graph::str() const
{
    std::ostringstream oss;
    oss << "graph(lang=" << langName_ << ", nodes=" << nodes_.size()
        << ", edges=" << edges_.size() << ")\n";
    for (const auto &n : nodes_) {
        oss << "  node " << n.name << " : " << n.type;
        for (const auto &[k, v] : n.attrs)
            oss << " " << k << "=" << v.effective.str();
        oss << "\n";
    }
    for (const auto &e : edges_) {
        oss << "  edge " << e.name << " : " << e.type << " "
            << nodes_[static_cast<std::size_t>(e.src.index)].name << " -> "
            << nodes_[static_cast<std::size_t>(e.dst.index)].name;
        if (!e.enabled)
            oss << " (off)";
        oss << "\n";
    }
    return oss.str();
}

} // namespace ark::dg
