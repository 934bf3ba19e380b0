#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "etl/cost_model.h"
#include "etl/expr.h"
#include "etl/flow.h"
#include "etl/schema_inference.h"
#include "etl/xlm.h"
#include "xml/xml.h"

namespace quarry::etl {
namespace {

using storage::Row;
using storage::Value;

// --- expressions -----------------------------------------------------------

Result<Value> EvalOn(const std::string& text,
                     const std::vector<std::string>& names, const Row& row) {
  auto expr = ParseExpr(text);
  if (!expr.ok()) return expr.status();
  RowView view{&names, &row};
  return (*expr)->Eval(view);
}

TEST(ExprTest, ArithmeticPrecedence) {
  EXPECT_EQ(EvalOn("1 + 2 * 3", {}, {})->as_int(), 7);
  EXPECT_EQ(EvalOn("(1 + 2) * 3", {}, {})->as_int(), 9);
  EXPECT_DOUBLE_EQ(EvalOn("7 / 2", {}, {})->as_double(), 3.5);
  EXPECT_EQ(EvalOn("-3 + 5", {}, {})->as_int(), 2);
  EXPECT_EQ(EvalOn("2 - 3 - 4", {}, {})->as_int(), -5);
}

TEST(ExprTest, ColumnsResolveByName) {
  std::vector<std::string> names{"l_extendedprice", "l_discount"};
  Row row{Value::Double(100.0), Value::Double(0.05)};
  auto v = EvalOn("l_extendedprice * (1 - l_discount)", names, row);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_DOUBLE_EQ(v->as_double(), 95.0);
}

TEST(ExprTest, UnknownColumnFails) {
  EXPECT_TRUE(EvalOn("nope + 1", {"a"}, {Value::Int(1)})
                  .status()
                  .IsNotFound());
}

TEST(ExprTest, Comparisons) {
  EXPECT_TRUE(EvalOn("1 < 2", {}, {})->as_bool());
  EXPECT_TRUE(EvalOn("2 <= 2", {}, {})->as_bool());
  EXPECT_FALSE(EvalOn("1 = 2", {}, {})->as_bool());
  EXPECT_TRUE(EvalOn("1 <> 2", {}, {})->as_bool());
  EXPECT_TRUE(EvalOn("1 != 2", {}, {})->as_bool());
  EXPECT_TRUE(EvalOn("'Spain' = 'Spain'", {}, {})->as_bool());
  EXPECT_TRUE(EvalOn("'a' < 'b'", {}, {})->as_bool());
}

TEST(ExprTest, DateLiteralComparison) {
  auto v = EvalOn("DATE '1995-01-01' < DATE '1996-01-01'", {}, {});
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_TRUE(v->as_bool());
}

TEST(ExprTest, BooleanConnectives) {
  EXPECT_TRUE(EvalOn("TRUE AND NOT FALSE", {}, {})->as_bool());
  EXPECT_TRUE(EvalOn("FALSE OR 1 = 1", {}, {})->as_bool());
  EXPECT_FALSE(EvalOn("FALSE AND 1 = 1", {}, {})->as_bool());
  // AND binds tighter than OR.
  EXPECT_TRUE(EvalOn("TRUE OR FALSE AND FALSE", {}, {})->as_bool());
}

TEST(ExprTest, NullPropagation) {
  std::vector<std::string> names{"x"};
  Row row{Value::Null()};
  EXPECT_TRUE(EvalOn("x + 1", names, row)->is_null());
  EXPECT_TRUE(EvalOn("x = 1", names, row)->is_null());
  // NULL behaves as false under the connectives.
  EXPECT_FALSE(EvalOn("x = 1 OR FALSE", names, row)->as_bool());
  EXPECT_TRUE(EvalOn("NOT (x = 1)", names, row)->as_bool());
}

TEST(ExprTest, DivisionByZeroYieldsNull) {
  EXPECT_TRUE(EvalOn("1 / 0", {}, {})->is_null());
}

TEST(ExprTest, StringConcatViaPlus) {
  EXPECT_EQ(EvalOn("'a' + 'b'", {}, {})->as_string(), "ab");
}

TEST(ExprTest, EscapedQuoteInStringLiteral) {
  EXPECT_EQ(EvalOn("'it''s'", {}, {})->as_string(), "it's");
}

TEST(ExprTest, ParseErrors) {
  EXPECT_TRUE(ParseExpr("").status().IsParseError());
  EXPECT_TRUE(ParseExpr("1 +").status().IsParseError());
  EXPECT_TRUE(ParseExpr("(1").status().IsParseError());
  EXPECT_TRUE(ParseExpr("1 2").status().IsParseError());
  EXPECT_TRUE(ParseExpr("'unterminated").status().IsParseError());
  EXPECT_TRUE(ParseExpr("DATE '13-13-13'").status().IsParseError());
}

TEST(ExprTest, ToStringRoundtrips) {
  for (const char* text :
       {"l_extendedprice * (1 - l_discount)",
        "Nation.n_name = 'Spain' AND l_quantity > 5",
        "NOT (a = 1) OR b <= DATE '1995-03-15'", "-x + 2.5"}) {
    auto e1 = ParseExpr(text);
    ASSERT_TRUE(e1.ok()) << text;
    auto e2 = ParseExpr((*e1)->ToString());
    ASSERT_TRUE(e2.ok()) << (*e1)->ToString();
    EXPECT_TRUE((*e1)->EqualTo(**e2)) << text;
  }
}

TEST(ExprTest, ReferencedColumns) {
  auto e = ParseExpr("a * (b + 1) > c AND a < 2");
  ASSERT_TRUE(e.ok());
  std::set<std::string> expected{"a", "b", "c"};
  EXPECT_EQ((*e)->ReferencedColumns(), expected);
}

// --- flow graph -------------------------------------------------------------

Flow MakeLinearFlow() {
  Flow flow("f");
  Node ds{"ds", OpType::kDatastore, {{"table", "lineitem"}}, {"ir1"}};
  Node ex{"ex", OpType::kExtraction, {{"table", "lineitem"}}, {"ir1"}};
  Node sel{"sel", OpType::kSelection, {{"predicate", "l_quantity > 5"}},
           {"ir1"}};
  Node load{"load", OpType::kLoader, {{"table", "out"}}, {"ir1"}};
  EXPECT_TRUE(flow.AddNode(ds).ok());
  EXPECT_TRUE(flow.AddNode(ex).ok());
  EXPECT_TRUE(flow.AddNode(sel).ok());
  EXPECT_TRUE(flow.AddNode(load).ok());
  EXPECT_TRUE(flow.AddEdge("ds", "ex").ok());
  EXPECT_TRUE(flow.AddEdge("ex", "sel").ok());
  EXPECT_TRUE(flow.AddEdge("sel", "load").ok());
  return flow;
}

TEST(FlowTest, AddRemoveNodesAndEdges) {
  Flow flow = MakeLinearFlow();
  EXPECT_EQ(flow.num_nodes(), 4u);
  EXPECT_EQ(flow.num_edges(), 3u);
  EXPECT_TRUE(flow.AddNode({"ds", OpType::kDatastore, {}, {}})
                  .IsAlreadyExists());
  EXPECT_TRUE(flow.AddEdge("ds", "ex").IsAlreadyExists());
  EXPECT_TRUE(flow.AddEdge("ds", "nope").IsNotFound());
  EXPECT_TRUE(flow.RemoveNode("sel").ok());
  EXPECT_EQ(flow.num_edges(), 1u);  // Incident edges removed.
  EXPECT_TRUE(flow.RemoveNode("sel").IsNotFound());
}

TEST(FlowTest, PredecessorsKeepEdgeOrder) {
  Flow flow("f");
  for (const char* id : {"a", "b", "j"}) {
    ASSERT_TRUE(
        flow.AddNode({id, OpType::kDatastore, {{"table", id}}, {}}).ok());
  }
  ASSERT_TRUE(flow.AddEdge("a", "j").ok());
  ASSERT_TRUE(flow.AddEdge("b", "j").ok());
  EXPECT_EQ(flow.Predecessors("j"),
            (std::vector<std::string>{"a", "b"}));
}

TEST(FlowTest, TopologicalOrderRespectsEdges) {
  Flow flow = MakeLinearFlow();
  auto order = flow.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  auto pos = [&](const std::string& id) {
    return std::find(order->begin(), order->end(), id) - order->begin();
  };
  EXPECT_LT(pos("ds"), pos("ex"));
  EXPECT_LT(pos("ex"), pos("sel"));
  EXPECT_LT(pos("sel"), pos("load"));
}

TEST(FlowTest, CycleDetected) {
  Flow flow("f");
  ASSERT_TRUE(flow.AddNode({"a", OpType::kFunction, {}, {}}).ok());
  ASSERT_TRUE(flow.AddNode({"b", OpType::kFunction, {}, {}}).ok());
  ASSERT_TRUE(flow.AddEdge("a", "b").ok());
  ASSERT_TRUE(flow.AddEdge("b", "a").ok());
  EXPECT_TRUE(flow.TopologicalOrder().status().IsValidationError());
  EXPECT_TRUE(flow.Validate().IsValidationError());
}

TEST(FlowTest, ValidateChecksArityAndSinks) {
  Flow flow = MakeLinearFlow();
  EXPECT_TRUE(flow.Validate().ok());
  // A sink that is not a loader is invalid.
  ASSERT_TRUE(flow.AddNode({"dangling", OpType::kSelection,
                            {{"predicate", "1 = 1"}}, {}})
                  .ok());
  ASSERT_TRUE(flow.AddEdge("ex", "dangling").ok());
  EXPECT_TRUE(flow.Validate().IsValidationError());
}

TEST(FlowTest, ValidateChecksJoinArity) {
  Flow flow("f");
  ASSERT_TRUE(
      flow.AddNode({"ds", OpType::kDatastore, {{"table", "t"}}, {}}).ok());
  ASSERT_TRUE(flow.AddNode({"j", OpType::kJoin, {}, {}}).ok());
  ASSERT_TRUE(flow.AddNode({"l", OpType::kLoader, {{"table", "o"}}, {}}).ok());
  ASSERT_TRUE(flow.AddEdge("ds", "j").ok());
  ASSERT_TRUE(flow.AddEdge("j", "l").ok());
  EXPECT_TRUE(flow.Validate().IsValidationError());  // join needs 2 inputs
}

TEST(FlowTest, SourcesAndSinks) {
  Flow flow = MakeLinearFlow();
  EXPECT_EQ(flow.SourceIds(), (std::vector<std::string>{"ds"}));
  EXPECT_EQ(flow.SinkIds(), (std::vector<std::string>{"load"}));
}

TEST(FlowTest, CloneIsIndependent) {
  Flow flow = MakeLinearFlow();
  Flow copy = flow.Clone();
  ASSERT_TRUE(copy.RemoveNode("sel").ok());
  EXPECT_TRUE(flow.HasNode("sel"));
  EXPECT_EQ(copy.num_nodes(), 3u);
}

TEST(FlowTest, PruneRequirementRemovesExclusiveNodes) {
  Flow flow = MakeLinearFlow();
  // "sel" additionally serves ir2; everything else only ir1.
  (*flow.GetMutableNode("sel"))->requirement_ids.insert("ir2");
  size_t removed = flow.PruneRequirement("ir1");
  EXPECT_EQ(removed, 3u);
  EXPECT_TRUE(flow.HasNode("sel"));
  EXPECT_EQ(flow.RequirementIds(), (std::set<std::string>{"ir2"}));
}

TEST(FlowTest, SignatureDependsOnTypeAndParams) {
  Node a{"x", OpType::kSelection, {{"predicate", "p"}}, {"ir1"}};
  Node b{"y", OpType::kSelection, {{"predicate", "p"}}, {"ir2"}};
  Node c{"z", OpType::kSelection, {{"predicate", "q"}}, {"ir1"}};
  EXPECT_EQ(a.Signature(), b.Signature());  // ids and traces don't matter
  EXPECT_NE(a.Signature(), c.Signature());
}

// --- xLM io -----------------------------------------------------------------

TEST(XlmTest, RoundtripPreservesFlow) {
  Flow flow = MakeLinearFlow();
  auto doc = FlowToXlm(flow);
  auto parsed = FlowFromXlm(*doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->name(), flow.name());
  EXPECT_EQ(parsed->num_nodes(), flow.num_nodes());
  EXPECT_EQ(parsed->num_edges(), flow.num_edges());
  EXPECT_EQ(parsed->GetNode("sel").value()->params.at("predicate"),
            "l_quantity > 5");
  EXPECT_EQ(parsed->GetNode("sel").value()->requirement_ids,
            (std::set<std::string>{"ir1"}));
  EXPECT_TRUE(xml::DeepEqual(*doc, *FlowToXlm(*parsed)));
}

TEST(XlmTest, RoundtripThroughText) {
  Flow flow = MakeLinearFlow();
  std::string text = xml::Write(*FlowToXlm(flow));
  // The serialized form matches the paper's tags.
  EXPECT_NE(text.find("<design>"), std::string::npos);
  EXPECT_NE(text.find("<from>ds</from>"), std::string::npos);
  EXPECT_NE(text.find("<enabled>Y</enabled>"), std::string::npos);
  auto doc = xml::Parse(text);
  ASSERT_TRUE(doc.ok());
  auto parsed = FlowFromXlm(**doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_nodes(), 4u);
}

TEST(XlmTest, RejectsBadDocuments) {
  auto not_design = xml::Parse("<flow/>");
  ASSERT_TRUE(not_design.ok());
  EXPECT_TRUE(FlowFromXlm(**not_design).status().IsParseError());
  auto bad_type = xml::Parse(
      "<design><nodes><node><name>a</name><type>Bogus</type></node></nodes>"
      "</design>");
  ASSERT_TRUE(bad_type.ok());
  EXPECT_TRUE(FlowFromXlm(**bad_type).status().IsParseError());
}

TEST(XlmTest, EngineOpTypesAreMapped) {
  EXPECT_STREQ(EngineOpType(OpType::kDatastore), "TableInput");
  EXPECT_STREQ(EngineOpType(OpType::kLoader), "TableOutput");
  EXPECT_STREQ(EngineOpType(OpType::kAggregation), "GroupBy");
}

// --- agg specs & schema inference -------------------------------------------

TEST(AggSpecTest, ParseAndPrint) {
  auto specs = ParseAggSpecs("SUM(revenue) AS total;COUNT(*) AS n;AVG(x)");
  ASSERT_TRUE(specs.ok()) << specs.status();
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0].function, "SUM");
  EXPECT_EQ((*specs)[0].output, "total");
  EXPECT_EQ((*specs)[1].input, "*");
  EXPECT_EQ((*specs)[2].output, "AVG_x");
  EXPECT_EQ(AggSpecsToString(*specs),
            "SUM(revenue) AS total;COUNT(*) AS n;AVG(x) AS AVG_x");
}

TEST(AggSpecTest, Errors) {
  EXPECT_TRUE(ParseAggSpecs("").status().IsParseError());
  EXPECT_TRUE(ParseAggSpecs("SUM revenue").status().IsParseError());
  EXPECT_TRUE(ParseAggSpecs("MEDIAN(x) AS m").status().IsParseError());
  EXPECT_TRUE(ParseAggSpecs("SUM(*) AS s").status().IsParseError());
  EXPECT_TRUE(ParseAggSpecs("SUM(x) WITH y").status().IsParseError());
}

TableColumns TpchColumns() {
  return {
      {"lineitem",
       {"l_orderkey", "l_linenumber", "l_partkey", "l_suppkey", "l_quantity",
        "l_extendedprice", "l_discount", "l_tax", "l_shipdate",
        "l_returnflag"}},
      {"part", {"p_partkey", "p_name", "p_brand", "p_type", "p_retailprice"}},
  };
}

TEST(SchemaInferenceTest, LinearFlowColumnsPropagate) {
  Flow flow("f");
  ASSERT_TRUE(flow.AddNode({"ds", OpType::kDatastore,
                            {{"table", "lineitem"}}, {}})
                  .ok());
  ASSERT_TRUE(flow.AddNode({"ex", OpType::kExtraction, {}, {}}).ok());
  ASSERT_TRUE(flow.AddNode({"fn", OpType::kFunction,
                            {{"column", "revenue"},
                             {"expr", "l_extendedprice * (1 - l_discount)"}},
                            {}})
                  .ok());
  ASSERT_TRUE(flow.AddNode({"pr", OpType::kProjection,
                            {{"columns", "l_partkey,revenue"}}, {}})
                  .ok());
  ASSERT_TRUE(flow.AddNode({"ag", OpType::kAggregation,
                            {{"group", "l_partkey"},
                             {"aggs", "SUM(revenue) AS total"}},
                            {}})
                  .ok());
  ASSERT_TRUE(flow.AddEdge("ds", "ex").ok());
  ASSERT_TRUE(flow.AddEdge("ex", "fn").ok());
  ASSERT_TRUE(flow.AddEdge("fn", "pr").ok());
  ASSERT_TRUE(flow.AddEdge("pr", "ag").ok());
  auto columns = InferColumns(flow, TpchColumns());
  ASSERT_TRUE(columns.ok()) << columns.status();
  EXPECT_EQ(columns->at("ds").size(), 10u);
  EXPECT_EQ(columns->at("fn").size(), 11u);
  EXPECT_EQ(columns->at("pr"),
            (std::vector<std::string>{"l_partkey", "revenue"}));
  EXPECT_EQ(columns->at("ag"),
            (std::vector<std::string>{"l_partkey", "total"}));
}

TEST(SchemaInferenceTest, JoinMergesAndChecksDuplicates) {
  Flow flow("f");
  ASSERT_TRUE(flow.AddNode({"l", OpType::kDatastore,
                            {{"table", "lineitem"}}, {}})
                  .ok());
  ASSERT_TRUE(
      flow.AddNode({"p", OpType::kDatastore, {{"table", "part"}}, {}}).ok());
  ASSERT_TRUE(flow.AddNode({"j", OpType::kJoin,
                            {{"left", "l_partkey"}, {"right", "p_partkey"}},
                            {}})
                  .ok());
  ASSERT_TRUE(flow.AddEdge("l", "j").ok());
  ASSERT_TRUE(flow.AddEdge("p", "j").ok());
  auto columns = InferColumns(flow, TpchColumns());
  ASSERT_TRUE(columns.ok()) << columns.status();
  EXPECT_EQ(columns->at("j").size(), 15u);

  // Self-join would duplicate every column name.
  Flow bad("b");
  ASSERT_TRUE(
      bad.AddNode({"a", OpType::kDatastore, {{"table", "part"}}, {}}).ok());
  ASSERT_TRUE(
      bad.AddNode({"b", OpType::kDatastore, {{"table", "part"}}, {}}).ok());
  ASSERT_TRUE(bad.AddNode({"j", OpType::kJoin,
                           {{"left", "p_partkey"}, {"right", "p_partkey"}},
                           {}})
                  .ok());
  ASSERT_TRUE(bad.AddEdge("a", "j").ok());
  ASSERT_TRUE(bad.AddEdge("b", "j").ok());
  EXPECT_TRUE(InferColumns(bad, TpchColumns()).status().IsValidationError());
}

TEST(SchemaInferenceTest, UnknownColumnsCaught) {
  Flow flow("f");
  ASSERT_TRUE(flow.AddNode({"ds", OpType::kDatastore,
                            {{"table", "lineitem"}}, {}})
                  .ok());
  ASSERT_TRUE(flow.AddNode({"sel", OpType::kSelection,
                            {{"predicate", "no_such_col > 1"}}, {}})
                  .ok());
  ASSERT_TRUE(flow.AddEdge("ds", "sel").ok());
  EXPECT_TRUE(InferColumns(flow, TpchColumns()).status().IsValidationError());
}

TEST(SchemaInferenceTest, UnknownTableCaught) {
  Flow flow("f");
  ASSERT_TRUE(
      flow.AddNode({"ds", OpType::kDatastore, {{"table", "ghost"}}, {}}).ok());
  EXPECT_TRUE(InferColumns(flow, TpchColumns()).status().IsNotFound());
}

TEST(SchemaInferenceTest, LiveColumnsFollowTheReadRules) {
  Flow flow("f");
  auto add = [&flow](const std::string& id, OpType type,
                     std::map<std::string, std::string> params) {
    ASSERT_TRUE(flow.AddNode({id, type, std::move(params), {}}).ok()) << id;
  };
  add("l", OpType::kDatastore, {{"table", "lineitem"}});
  add("p", OpType::kDatastore, {{"table", "part"}});
  add("exl", OpType::kExtraction, {{"table", "lineitem"}});
  add("exp", OpType::kExtraction, {{"table", "part"}});
  add("j", OpType::kJoin, {{"left", "l_partkey"}, {"right", "p_partkey"}});
  add("sel", OpType::kSelection, {{"predicate", "l_quantity > 5"}});
  add("fn", OpType::kFunction,
      {{"column", "revenue"}, {"expr", "l_extendedprice * (1 - l_discount)"}});
  add("pr", OpType::kProjection, {{"columns", "p_name,revenue,l_tax"}});
  add("ag", OpType::kAggregation,
      {{"group", "p_name"}, {"aggs", "SUM(revenue) AS total"}});
  add("ld", OpType::kLoader, {{"table", "out"}});
  add("srt", OpType::kSort, {{"by", "p_brand"}});
  add("ld2", OpType::kLoader, {{"table", "parts"}});
  add("dangling", OpType::kProjection, {{"columns", "l_tax"}});
  add("bad", OpType::kSelection, {{"predicate", "l_quantity >"}});
  for (auto [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"l", "exl"}, {"p", "exp"}, {"exl", "j"}, {"exp", "j"},
           {"j", "sel"}, {"sel", "fn"}, {"fn", "pr"}, {"pr", "ag"},
           {"ag", "ld"}, {"exp", "srt"}, {"srt", "ld2"}, {"exl", "dangling"},
           {"l", "bad"}}) {
    ASSERT_TRUE(flow.AddEdge(from, to).ok()) << from << " -> " << to;
  }
  auto order = flow.TopologicalOrder();
  ASSERT_TRUE(order.ok()) << order.status();
  const std::map<std::string, LiveColumns> live = LiveColumnsOf(flow, *order);
  ASSERT_EQ(live.size(), flow.num_nodes());
  using Names = std::set<std::string>;
  auto names_of = [&live](const std::string& id) {
    const LiveColumns& l = live.at(id);
    EXPECT_FALSE(l.all) << id;
    return l.names;
  };
  // Aggregation reads its group and inputs; the projection passes on only
  // its listed names that are live (not l_tax); the function and the
  // selection add what they reference; the join adds each side's key.
  EXPECT_EQ(names_of("pr"), (Names{"p_name", "revenue"}));
  EXPECT_EQ(names_of("fn"), (Names{"p_name", "revenue"}));
  EXPECT_EQ(names_of("sel"),
            (Names{"l_discount", "l_extendedprice", "p_name", "revenue"}));
  EXPECT_EQ(names_of("j"), (Names{"l_discount", "l_extendedprice",
                                  "l_quantity", "p_name", "revenue"}));
  // Two consumers: the join (its left key added) and a projection with no
  // consumer of its own, which reads what it lists.
  EXPECT_EQ(names_of("exl"),
            (Names{"l_discount", "l_extendedprice", "l_partkey",
                   "l_quantity", "l_tax", "p_name", "revenue"}));
  // Every column: sinks, dangling nodes, inputs of a Loader or a Sort, and
  // the input of a node whose params do not parse.
  for (const char* id : {"ld", "ld2", "dangling", "bad", "ag", "srt", "exp",
                         "p", "l"}) {
    EXPECT_TRUE(live.at(id).all) << id;
  }
  EXPECT_TRUE(live.at("exp").Contains("p_comment"));
  EXPECT_FALSE(live.at("j").Contains("l_tax"));
}

// --- cost model --------------------------------------------------------------

TEST(CostModelTest, LinearFlowCostReflectsCardinalities) {
  Flow flow = MakeLinearFlow();
  std::map<std::string, int64_t> rows{{"lineitem", 1000}};
  auto est = EstimateCost(flow, rows);
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_DOUBLE_EQ(est->node_output_rows.at("ds"), 1000.0);
  EXPECT_DOUBLE_EQ(est->node_output_rows.at("ex"), 1000.0);
  EXPECT_NEAR(est->node_output_rows.at("sel"), 330.0, 1.0);
  EXPECT_GT(est->total_cost, 0.0);
  // Doubling the source roughly doubles the cost.
  std::map<std::string, int64_t> rows2{{"lineitem", 2000}};
  auto est2 = EstimateCost(flow, rows2);
  ASSERT_TRUE(est2.ok());
  EXPECT_NEAR(est2->total_cost / est->total_cost, 2.0, 0.01);
}

TEST(CostModelTest, SelectionBeforeExpensiveOpIsCheaper) {
  // ds -> ex -> sel -> agg -> load   vs   ds -> ex -> agg -> sel' -> load
  auto make = [](bool filter_first) {
    Flow flow("f");
    EXPECT_TRUE(flow.AddNode({"ds", OpType::kDatastore,
                              {{"table", "lineitem"}}, {}})
                    .ok());
    EXPECT_TRUE(flow.AddNode({"ex", OpType::kExtraction, {}, {}}).ok());
    EXPECT_TRUE(flow.AddNode({"sel", OpType::kSelection,
                              {{"predicate", "l_quantity > 5"}}, {}})
                    .ok());
    EXPECT_TRUE(flow.AddNode({"agg", OpType::kAggregation,
                              {{"group", "l_partkey"},
                               {"aggs", "SUM(l_quantity) AS q"}},
                              {}})
                    .ok());
    EXPECT_TRUE(
        flow.AddNode({"load", OpType::kLoader, {{"table", "o"}}, {}}).ok());
    EXPECT_TRUE(flow.AddEdge("ds", "ex").ok());
    if (filter_first) {
      EXPECT_TRUE(flow.AddEdge("ex", "sel").ok());
      EXPECT_TRUE(flow.AddEdge("sel", "agg").ok());
      EXPECT_TRUE(flow.AddEdge("agg", "load").ok());
    } else {
      EXPECT_TRUE(flow.AddEdge("ex", "agg").ok());
      EXPECT_TRUE(flow.AddEdge("agg", "sel").ok());
      EXPECT_TRUE(flow.AddEdge("sel", "load").ok());
    }
    return flow;
  };
  std::map<std::string, int64_t> rows{{"lineitem", 100000}};
  auto cheap = EstimateCost(make(true), rows);
  auto costly = EstimateCost(make(false), rows);
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(costly.ok());
  EXPECT_LT(cheap->total_cost, costly->total_cost);
}

TEST(CostModelTest, UnknownTableCostsZeroRows) {
  Flow flow("f");
  ASSERT_TRUE(
      flow.AddNode({"ds", OpType::kDatastore, {{"table", "ghost"}}, {}}).ok());
  auto est = EstimateCost(flow, {});
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->node_output_rows.at("ds"), 0.0);
}

}  // namespace
}  // namespace quarry::etl
