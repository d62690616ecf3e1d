/**
 * @file
 * Tests for the dynamical-graph IR: datatypes, type tables, graph
 * construction, adjacency queries, switching, and mismatch sampling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "dg/datatype.h"
#include "dg/graph.h"
#include "dg/types.h"
#include "expr/expr.h"
#include "support/error.h"
#include "support/rng.h"

namespace {

using namespace ark;
using dg::DataType;
using dg::Graph;
using dg::Mismatch;
using dg::TypeTable;
using expr::Value;
using support::SemaError;
using support::TypeError;

// --- datatypes -----------------------------------------------------------

TEST(DataTypeTest, ContainsChecksKindAndRange)
{
    DataType real = DataType::real(0.0, 1.0);
    EXPECT_TRUE(real.contains(Value::real(0.5)));
    EXPECT_TRUE(real.contains(Value::real(1.0)));   // inclusive
    EXPECT_TRUE(real.contains(Value::integer(1)));  // widening
    EXPECT_FALSE(real.contains(Value::real(1.5)));
    EXPECT_FALSE(real.contains(Value::boolean(true)));

    DataType integer = DataType::integer(0, 1);
    EXPECT_TRUE(integer.contains(Value::integer(0)));
    EXPECT_FALSE(integer.contains(Value::integer(2)));
    EXPECT_FALSE(integer.contains(Value::real(0.5))); // no narrowing

    DataType fn = DataType::function({"a0"});
    EXPECT_TRUE(fn.contains(Value::function(
        expr::Lambda{{"t"}, expr::Expr::var("t")})));
    EXPECT_FALSE(fn.contains(Value::function(
        expr::Lambda{{"a", "b"}, expr::Expr::var("a")})));
}

TEST(DataTypeTest, NarrowerOrEqual)
{
    DataType parent = DataType::real(0.0, 10.0);
    EXPECT_TRUE(DataType::real(1.0, 5.0).narrowerOrEqual(parent));
    EXPECT_TRUE(DataType::real(0.0, 10.0).narrowerOrEqual(parent));
    EXPECT_FALSE(DataType::real(-1.0, 5.0).narrowerOrEqual(parent));
    EXPECT_FALSE(DataType::integer(0, 5).narrowerOrEqual(parent));
    // Mismatch annotations are orthogonal to the range relation.
    EXPECT_TRUE(DataType::realMm(0.0, 10.0, Mismatch{0, 0.1})
                    .narrowerOrEqual(parent));
}

TEST(DataTypeTest, Rendering)
{
    EXPECT_EQ(DataType::real(0, 1).str(), "real[0,1]");
    EXPECT_EQ(DataType::realMm(0.5, 2, Mismatch{0, 0.1}).str(),
              "real[0.5,2] mm(0,0.1)");
    EXPECT_EQ(DataType::integer(1, 1).str(), "int[1,1]");
    EXPECT_EQ(DataType::function({"a0"}).str(), "lambd(a0)");
    EXPECT_EQ(DataType::real(0, 1).asConst().str(), "real[0,1] const");
}

// --- type tables -----------------------------------------------------------

TypeTable
makeTable()
{
    TypeTable table;
    dg::NodeTypeDef v;
    v.name = "V";
    v.order = 1;
    v.attrs.push_back({"c", DataType::real(0, 1), std::nullopt});
    v.inits.push_back({0, DataType::real(-10, 10),
                       Value::real(0.0)});
    table.addNodeType(v);

    dg::NodeTypeDef vm = v;
    vm.name = "Vm";
    vm.parent = "V";
    table.addNodeType(vm);

    dg::EdgeTypeDef e;
    e.name = "E";
    table.addEdgeType(e);

    dg::EdgeTypeDef f;
    f.name = "F";
    f.fixed = true;
    table.addEdgeType(f);
    return table;
}

TEST(TypeTableTest, LookupAndAncestry)
{
    TypeTable table = makeTable();
    EXPECT_TRUE(table.hasNodeType("V"));
    EXPECT_FALSE(table.hasNodeType("X"));
    EXPECT_TRUE(table.isNodeAncestor("V", "Vm"));
    EXPECT_TRUE(table.isNodeAncestor("V", "V")); // reflexive
    EXPECT_FALSE(table.isNodeAncestor("Vm", "V"));
    EXPECT_EQ(table.nodeDistance("Vm", "V"), 1);
    EXPECT_EQ(table.nodeDistance("V", "V"), 0);
    EXPECT_EQ(table.nodeDistance("V", "Vm"), -1);
    EXPECT_THROW(table.nodeType("nope"), SemaError);
}

TEST(TypeTableTest, RejectsDuplicatesAndUnknownParents)
{
    TypeTable table = makeTable();
    dg::NodeTypeDef dup;
    dup.name = "V";
    EXPECT_THROW(table.addNodeType(dup), SemaError);
    dg::NodeTypeDef orphan;
    orphan.name = "Z";
    orphan.parent = "Missing";
    EXPECT_THROW(table.addNodeType(orphan), SemaError);
    dg::EdgeTypeDef edgeClash;
    edgeClash.name = "V"; // collides with a node type
    EXPECT_THROW(table.addEdgeType(edgeClash), SemaError);
}

// --- graphs ------------------------------------------------------------------

class GraphTest : public ::testing::Test
{
  protected:
    GraphTest() : table_(makeTable()), graph_(&table_, "test") {}

    TypeTable table_;
    Graph graph_;
};

TEST_F(GraphTest, AddAndLookup)
{
    dg::NodeId a = graph_.addNode("a", "V");
    dg::NodeId b = graph_.addNode("b", "Vm");
    dg::EdgeId e = graph_.addEdge("e", "E", a, b);
    EXPECT_EQ(graph_.numNodes(), 2u);
    EXPECT_EQ(graph_.numEdges(), 1u);
    EXPECT_EQ(graph_.findNode("a"), std::optional<dg::NodeId>(a));
    EXPECT_EQ(graph_.findEdge("e"), std::optional<dg::EdgeId>(e));
    EXPECT_FALSE(graph_.findNode("zz").has_value());
    EXPECT_EQ(graph_.node(b).type, "Vm");
}

TEST_F(GraphTest, RejectsDuplicatesAndUnknownTypes)
{
    graph_.addNode("a", "V");
    EXPECT_THROW(graph_.addNode("a", "V"), SemaError);
    EXPECT_THROW(graph_.addNode("b", "Nope"), SemaError);
    dg::NodeId a = *graph_.findNode("a");
    EXPECT_THROW(graph_.addEdge("a", "E", a, a), SemaError); // name dup
    EXPECT_THROW(graph_.addEdge("e", "Nope", a, a), SemaError);
}

TEST_F(GraphTest, AdjacencyClassification)
{
    dg::NodeId a = graph_.addNode("a", "V");
    dg::NodeId b = graph_.addNode("b", "V");
    graph_.addEdge("ab", "E", a, b);
    graph_.addEdge("ba", "E", b, a);
    graph_.addEdge("aa", "E", a, a);

    EXPECT_EQ(graph_.outgoingEdges(a).size(), 1u);
    EXPECT_EQ(graph_.incomingEdges(a).size(), 1u);
    EXPECT_EQ(graph_.selfEdges(a).size(), 1u);
    EXPECT_EQ(graph_.edgesOf(a).size(), 3u);
    EXPECT_EQ(graph_.selfEdges(b).size(), 0u);
    EXPECT_EQ(graph_.edgesOf(b).size(), 2u);
}

TEST_F(GraphTest, SwitchingExcludesFromQueries)
{
    dg::NodeId a = graph_.addNode("a", "V");
    dg::NodeId b = graph_.addNode("b", "V");
    dg::EdgeId e = graph_.addEdge("ab", "E", a, b);
    graph_.setEnabled(e, false);
    EXPECT_TRUE(graph_.outgoingEdges(a).empty());
    EXPECT_EQ(graph_.allEdgesOf(a).size(), 1u);
    EXPECT_FALSE(graph_.edge(e).enabled);
    graph_.setEnabled(e, true);
    EXPECT_EQ(graph_.outgoingEdges(a).size(), 1u);
}

TEST_F(GraphTest, FixedEdgesCannotSwitch)
{
    dg::NodeId a = graph_.addNode("a", "V");
    dg::NodeId b = graph_.addNode("b", "V");
    dg::EdgeId e = graph_.addEdge("ab", "F", a, b);
    EXPECT_THROW(graph_.setEnabled(e, false), SemaError);
}

/** The message of the TypeError `write` throws ("" when none). */
template <typename Write>
std::string
typeErrorMessage(const Write &write)
{
    try {
        write();
    } catch (const TypeError &error) {
        return error.what();
    }
    return "";
}

TEST_F(GraphTest, AttributeRangeEnforced)
{
    dg::NodeId a = graph_.addNode("a", "V");
    graph_.setNodeAttr(a, "c", Value::real(0.5));
    EXPECT_DOUBLE_EQ(graph_.nodeAttr(a, "c").asReal(), 0.5);
    EXPECT_THROW(graph_.setNodeAttr(a, "c", Value::real(2.0)),
                 TypeError);
    EXPECT_THROW(graph_.setNodeAttr(a, "zz", Value::real(0.5)),
                 SemaError);
    // The rejected write names its slot in the message.
    std::string message = typeErrorMessage(
        [&] { graph_.setNodeAttr(a, "c", Value::real(-1.0)); });
    EXPECT_NE(message.find("attribute 'a.c'"), std::string::npos)
        << message;
}

TEST_F(GraphTest, EdgeAttributeRangeEnforced)
{
    TypeTable table = makeTable();
    dg::EdgeTypeDef g;
    g.name = "G";
    g.attrs.push_back({"w", DataType::real(0, 1), std::nullopt});
    table.addEdgeType(g);
    Graph graph(&table, "test");
    dg::NodeId a = graph.addNode("a", "V");
    dg::EdgeId e = graph.addEdge("e", "G", a, a);
    graph.setEdgeAttr(e, "w", Value::real(0.25));
    EXPECT_DOUBLE_EQ(graph.edgeAttr(e, "w").asReal(), 0.25);
    EXPECT_THROW(graph.setEdgeAttr(e, "zz", Value::real(0.5)), SemaError);
    std::string message = typeErrorMessage(
        [&] { graph.setEdgeAttr(e, "w", Value::real(2.0)); });
    EXPECT_NE(message.find("attribute 'e.w'"), std::string::npos)
        << message;
    EXPECT_DOUBLE_EQ(graph.edgeAttr(e, "w").asReal(), 0.25);
}

TEST_F(GraphTest, IntLiteralsWidenIntoRealAttrs)
{
    dg::NodeId a = graph_.addNode("a", "V");
    graph_.setNodeAttr(a, "c", Value::integer(1));
    EXPECT_TRUE(graph_.nodeAttr(a, "c").isReal());
    EXPECT_DOUBLE_EQ(graph_.nodeAttr(a, "c").asReal(), 1.0);
}

TEST_F(GraphTest, InitValuesDefaultAndRange)
{
    dg::NodeId a = graph_.addNode("a", "V");
    // Declared fixed default 0.0 applies without set-init.
    EXPECT_DOUBLE_EQ(graph_.initValue(a, 0).asReal(), 0.0);
    graph_.setInit(a, 0, Value::real(2.5));
    EXPECT_DOUBLE_EQ(graph_.initValue(a, 0).asReal(), 2.5);
    EXPECT_THROW(graph_.setInit(a, 1, Value::real(0)), SemaError);
    EXPECT_THROW(graph_.setInit(a, 0, Value::real(100)), TypeError);
    std::string message = typeErrorMessage(
        [&] { graph_.setInit(a, 0, Value::real(-20)); });
    EXPECT_NE(message.find("init(0) of 'a'"), std::string::npos)
        << message;
}

TEST_F(GraphTest, CheckCompleteFindsMissingAttrs)
{
    graph_.addNode("a", "V");
    EXPECT_THROW(graph_.checkComplete(), SemaError);
    graph_.setNodeAttr(*graph_.findNode("a"), "c", Value::real(0.5));
    EXPECT_NO_THROW(graph_.checkComplete());
}

// --- mismatch sampling ---------------------------------------------------------

class MismatchGraphTest : public ::testing::Test
{
  protected:
    MismatchGraphTest()
    {
        dg::NodeTypeDef v;
        v.name = "Vm";
        v.order = 1;
        v.attrs.push_back(
            {"c", DataType::realMm(0, 10, Mismatch{0, 0.1}),
             std::nullopt});
        v.attrs.push_back(
            {"off", DataType::realMm(0, 0, Mismatch{0.02, 0}),
             std::nullopt});
        v.inits.push_back({0, DataType::real(-10, 10),
                           Value::real(0.0)});
        table_.addNodeType(v);
    }

    TypeTable table_;
};

TEST_F(MismatchGraphTest, RelativeMismatchScalesWithNominal)
{
    support::Rng rng(42);
    Graph graph(&table_, "t");
    dg::NodeId a = graph.addNode("a", "Vm");
    graph.setNodeAttr(a, "c", Value::real(5.0), &rng);
    double sampled = graph.nodeAttr(a, "c").asReal();
    EXPECT_NE(sampled, 5.0);
    EXPECT_NEAR(sampled, 5.0, 5.0 * 0.1 * 6); // within 6 sigma
    // The nominal value is preserved alongside the sample.
    EXPECT_DOUBLE_EQ(graph.nodeAttrNominal(a, "c").asReal(), 5.0);
}

TEST_F(MismatchGraphTest, AbsoluteMismatchOnZeroNominal)
{
    // The ofs-obc pattern: nominal 0 with absolute sigma 0.02 must
    // produce non-zero samples (see dg/datatype.h on mm semantics).
    support::Rng rng(7);
    Graph graph(&table_, "t");
    dg::NodeId a = graph.addNode("a", "Vm");
    graph.setNodeAttr(a, "off", Value::real(0.0), &rng);
    double sampled = graph.nodeAttr(a, "off").asReal();
    EXPECT_NE(sampled, 0.0);
    EXPECT_LT(std::fabs(sampled), 0.02 * 6);
}

TEST_F(MismatchGraphTest, SeedsReproduce)
{
    auto sample = [&](std::uint64_t seed) {
        support::Rng rng(seed);
        Graph graph(&table_, "t");
        dg::NodeId a = graph.addNode("a", "Vm");
        graph.setNodeAttr(a, "c", Value::real(5.0), &rng);
        return graph.nodeAttr(a, "c").asReal();
    };
    EXPECT_EQ(sample(1), sample(1));
    EXPECT_NE(sample(1), sample(2));
}

TEST_F(MismatchGraphTest, NoRngMeansNominal)
{
    Graph graph(&table_, "t");
    dg::NodeId a = graph.addNode("a", "Vm");
    graph.setNodeAttr(a, "c", Value::real(5.0), nullptr);
    EXPECT_DOUBLE_EQ(graph.nodeAttr(a, "c").asReal(), 5.0);
}

TEST_F(MismatchGraphTest, SampleStatisticsMatchSpec)
{
    // Across many seeds, sampled c ~ N(5, 0.5).
    const int n = 4000;
    double sum = 0, sumSq = 0;
    for (int i = 0; i < n; ++i) {
        support::Rng rng(static_cast<std::uint64_t>(i) + 1);
        Graph graph(&table_, "t");
        dg::NodeId a = graph.addNode("a", "Vm");
        graph.setNodeAttr(a, "c", Value::real(5.0), &rng);
        double v = graph.nodeAttr(a, "c").asReal();
        sum += v;
        sumSq += v * v;
    }
    double mean = sum / n;
    double sd = std::sqrt(sumSq / n - mean * mean);
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(sd, 0.5, 0.05);
}

} // namespace
