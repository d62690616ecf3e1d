#ifndef ARK_DG_GRAPH_H
#define ARK_DG_GRAPH_H

/**
 * @file
 * The dynamical graph (DG): Ark's unified intermediate representation
 * for analog computations and circuit descriptions (paper §3).
 *
 * A DG is a typed directed multigraph. Every node maps to a variable
 * of the underlying dynamical system (order p => p state variables);
 * every edge contributes terms to the dynamics of its endpoints via
 * the owning language's production rules. Nodes and edges carry
 * attribute values fixed before simulation; mismatch-annotated
 * attributes store the sampled value alongside the written nominal.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dg/types.h"
#include "expr/value.h"
#include "support/rng.h"

namespace ark::dg {

/** Index-based node handle (valid for the owning Graph only). */
struct NodeId
{
    std::int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const NodeId &) const = default;
};

/** Index-based edge handle. */
struct EdgeId
{
    std::int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const EdgeId &) const = default;
};

/** Stored attribute assignment: nominal written value + sample. */
struct AttrValue
{
    expr::Value nominal;   ///< The value the program wrote.
    expr::Value effective; ///< After mismatch sampling (== nominal if none).
};

/** One DG node instance. */
struct Node
{
    std::string name;
    std::string type;
    std::unordered_map<std::string, AttrValue> attrs;
    /** Initial value per derivative 0..order-1 (unset = nullopt). */
    std::vector<std::optional<expr::Value>> inits;
};

/** One DG edge instance. */
struct Edge
{
    std::string name;
    std::string type;
    NodeId src;
    NodeId dst;
    std::unordered_map<std::string, AttrValue> attrs;
    bool enabled = true;     ///< Switch state (set-switch).
    bool switchable = false; ///< True once a set-switch targeted it.

    bool isSelf() const { return src == dst; }
};

/**
 * A dynamical graph bound to a language's TypeTable.
 *
 * The table is non-owning and must outlive the graph (languages are
 * registry-owned and immortal in practice). Mutators type-check
 * against the table and throw TypeError/SemaError on misuse.
 */
class Graph
{
  public:
    /** @param types Type table of the language this DG is written in.
     *  @param langName Language name (diagnostics, casting checks). */
    Graph(const TypeTable *types, std::string langName);

    const TypeTable &types() const { return *types_; }
    const std::string &langName() const { return langName_; }

    /** @name Construction */
    /// @{

    /** Adds a node. @throws SemaError on dup name or unknown type. */
    NodeId addNode(const std::string &name, const std::string &type);

    /** Adds an edge. @throws SemaError on dup name/unknown type. */
    EdgeId addEdge(const std::string &name, const std::string &type,
                   NodeId src, NodeId dst);

    /**
     * Writes a node attribute. Range/type-checks the nominal value
     * against the attribute's datatype; if the datatype carries
     * mm(s0,s1) and `rng` is non-null, stores a sample from
     * N(x, s0 + s1*|x|) as the effective value (see dg::Mismatch).
     */
    void setNodeAttr(NodeId node, const std::string &attr,
                     const expr::Value &nominal,
                     support::Rng *rng = nullptr);

    /** Edge-attribute analogue of setNodeAttr. */
    void setEdgeAttr(EdgeId edge, const std::string &attr,
                     const expr::Value &nominal,
                     support::Rng *rng = nullptr);

    /** Sets the initial value of the ith derivative of a node. */
    void setInit(NodeId node, int derivative, const expr::Value &value,
                 support::Rng *rng = nullptr);

    /**
     * Sets an edge's switch state. @throws SemaError for edges of a
     * `fixed` edge type (non-programmable switches are always on).
     */
    void setEnabled(EdgeId edge, bool enabled);

    /// @}

    /** @name Lookup */
    /// @{

    std::optional<NodeId> findNode(const std::string &name) const;
    std::optional<EdgeId> findEdge(const std::string &name) const;

    const Node &node(NodeId id) const;
    const Edge &edge(EdgeId id) const;

    std::size_t numNodes() const { return nodes_.size(); }
    std::size_t numEdges() const { return edges_.size(); }

    /** Effective attribute value. @throws SemaError when unset. */
    const expr::Value &nodeAttr(NodeId node, const std::string &attr) const;
    const expr::Value &edgeAttr(EdgeId edge, const std::string &attr) const;

    /** Nominal (pre-mismatch) attribute value. */
    const expr::Value &nodeAttrNominal(NodeId node,
                                       const std::string &attr) const;

    /** Initial value of the ith derivative (0.0 default if unset). */
    expr::Value initValue(NodeId node, int derivative) const;

    /** Node/edge type descriptors. */
    const NodeTypeDef &nodeTypeOf(NodeId id) const;
    const EdgeTypeDef &edgeTypeOf(EdgeId id) const;

    /// @}

    /** @name Topology queries (enabled edges only unless noted) */
    /// @{

    /** Incoming non-self enabled edges of a node. */
    std::vector<EdgeId> incomingEdges(NodeId node) const;

    /** Outgoing non-self enabled edges of a node. */
    std::vector<EdgeId> outgoingEdges(NodeId node) const;

    /** Self-referencing enabled edges of a node. */
    std::vector<EdgeId> selfEdges(NodeId node) const;

    /** All enabled edges touching a node (in + out + self). */
    std::vector<EdgeId> edgesOf(NodeId node) const;

    /** Every edge incl. disabled ones (off-rule compilation). */
    std::vector<EdgeId> allEdgesOf(NodeId node) const;

    /// @}

    /**
     * Verifies that every declared attribute and initial value of
     * every node/edge has been assigned (or carries a fixed value in
     * its type). @throws SemaError naming the first omission.
     */
    void checkComplete() const;

    /** Multi-line description (tests and debugging). */
    std::string str() const;

  private:
    const TypeTable *types_;
    std::string langName_;
    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::unordered_map<std::string, std::int32_t> nodeByName_;
    std::unordered_map<std::string, std::int32_t> edgeByName_;
    /** Per node: indices of touching edges (any direction). */
    std::vector<std::vector<std::int32_t>> adjacency_;
};

} // namespace ark::dg

#endif // ARK_DG_GRAPH_H
