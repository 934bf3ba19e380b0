#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "datagen/tpch.h"
#include "etl/cost_model.h"
#include "etl/equivalence.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"
#include "etl/schema_inference.h"
#include "storage/database.h"

namespace quarry::etl {
namespace {

using storage::Database;
using storage::Row;
using storage::Table;
using storage::Value;

// Builds a small hand-made source database for precise operator checks.
std::unique_ptr<Database> MakeTinySource() {
  auto db = std::make_unique<Database>("src");
  storage::TableSchema sales("sales");
  EXPECT_TRUE(sales.AddColumn({"id", storage::DataType::kInt64, false}).ok());
  EXPECT_TRUE(
      sales.AddColumn({"product", storage::DataType::kString, true}).ok());
  EXPECT_TRUE(sales.AddColumn({"qty", storage::DataType::kInt64, true}).ok());
  EXPECT_TRUE(
      sales.AddColumn({"price", storage::DataType::kDouble, true}).ok());
  Table* t = *db->CreateTable(sales);
  EXPECT_TRUE(t->InsertAll({
                   {Value::Int(1), Value::String("a"), Value::Int(2),
                    Value::Double(10.0)},
                   {Value::Int(2), Value::String("b"), Value::Int(5),
                    Value::Double(4.0)},
                   {Value::Int(3), Value::String("a"), Value::Int(1),
                    Value::Double(10.0)},
                   {Value::Int(4), Value::String("c"), Value::Null(),
                    Value::Double(2.5)},
               })
                  .ok());
  storage::TableSchema products("products");
  EXPECT_TRUE(
      products.AddColumn({"prod_name", storage::DataType::kString, false})
          .ok());
  EXPECT_TRUE(
      products.AddColumn({"category", storage::DataType::kString, true})
          .ok());
  Table* p = *db->CreateTable(products);
  EXPECT_TRUE(p->InsertAll({
                   {Value::String("a"), Value::String("tools")},
                   {Value::String("b"), Value::String("toys")},
               })
                  .ok());
  return db;
}

Node MakeNode(const std::string& id, OpType type,
              std::map<std::string, std::string> params) {
  Node node;
  node.id = id;
  node.type = type;
  node.params = std::move(params);
  return node;
}

// Chains nodes linearly after a datastore+extraction prologue and a loader
// epilogue, runs the flow, and returns the loaded table.
Result<const Table*> RunPipeline(Database* src, Database* target,
                                 std::vector<Node> middle,
                                 const std::string& source_table = "sales",
                                 const std::string& keys = "") {
  Flow flow("t");
  QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
      "ds", OpType::kDatastore, {{"table", source_table}})));
  QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode("ex", OpType::kExtraction,
                                             {{"table", source_table}})));
  QUARRY_RETURN_NOT_OK(flow.AddEdge("ds", "ex"));
  std::string prev = "ex";
  for (Node& node : middle) {
    std::string id = node.id;
    QUARRY_RETURN_NOT_OK(flow.AddNode(std::move(node)));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(prev, id));
    prev = id;
  }
  QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
      "load", OpType::kLoader, {{"table", "out"}, {"keys", keys}})));
  QUARRY_RETURN_NOT_OK(flow.AddEdge(prev, "load"));
  Executor executor(src, target);
  QUARRY_RETURN_NOT_OK(executor.Run(flow).status());
  QUARRY_ASSIGN_OR_RETURN(Table * out, target->GetTable("out"));
  return static_cast<const Table*>(out);
}

TEST(ExecutorTest, ExtractionAndLoadCopiesTable) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out = RunPipeline(src.get(), &target, {});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out)->num_rows(), 4u);
  EXPECT_EQ((*out)->schema().num_columns(), 4u);
}

TEST(ExecutorTest, SelectionFilters) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out = RunPipeline(
      src.get(), &target,
      {MakeNode("sel", OpType::kSelection, {{"predicate", "qty >= 2"}})});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out)->num_rows(), 2u);  // NULL qty row excluded too
}

TEST(ExecutorTest, ProjectionReordersColumns) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out = RunPipeline(src.get(), &target,
                         {MakeNode("pr", OpType::kProjection,
                                   {{"columns", "price,product"}})});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out)->schema().columns()[0].name, "price");
  EXPECT_EQ((*out)->schema().columns()[1].name, "product");
  EXPECT_EQ((*out)->rows()[0][1].as_string(), "a");
}

TEST(ExecutorTest, FunctionComputesDerivedColumn) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out = RunPipeline(
      src.get(), &target,
      {MakeNode("fn", OpType::kFunction,
                {{"column", "amount"}, {"expr", "qty * price"}})});
  ASSERT_TRUE(out.ok()) << out.status();
  auto idx = (*out)->schema().ColumnIndex("amount");
  ASSERT_TRUE(idx.has_value());
  EXPECT_DOUBLE_EQ((*out)->rows()[0][*idx].as_double(), 20.0);
  EXPECT_TRUE((*out)->rows()[3][*idx].is_null());  // NULL qty propagates
}

TEST(ExecutorTest, AggregationComputesAllFunctions) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out = RunPipeline(
      src.get(), &target,
      {MakeNode("ag", OpType::kAggregation,
                {{"group", "product"},
                 {"aggs",
                  "SUM(qty) AS total;AVG(price) AS avg_price;COUNT(*) AS n;"
                  "MIN(qty) AS lo;MAX(qty) AS hi;COUNT(qty) AS nq"}})});
  ASSERT_TRUE(out.ok()) << out.status();
  const Table& t = **out;
  ASSERT_EQ(t.num_rows(), 3u);
  // Row for product 'a': qty 2 and 1.
  auto pos = t.ScanEquals("product", Value::String("a"));
  ASSERT_EQ(pos.size(), 1u);
  const Row a = t.row(pos[0]);
  EXPECT_EQ(a[1].as_int(), 3);             // SUM
  EXPECT_DOUBLE_EQ(a[2].as_double(), 10);  // AVG price
  EXPECT_EQ(a[3].as_int(), 2);             // COUNT(*)
  EXPECT_EQ(a[4].as_int(), 1);             // MIN
  EXPECT_EQ(a[5].as_int(), 2);             // MAX
  // Product 'c' has NULL qty: COUNT(qty)=0, SUM NULL.
  auto cpos = t.ScanEquals("product", Value::String("c"));
  ASSERT_EQ(cpos.size(), 1u);
  const Row c = t.row(cpos[0]);
  EXPECT_TRUE(c[1].is_null());
  EXPECT_EQ(c[3].as_int(), 1);  // COUNT(*) counts the row
  EXPECT_EQ(c[6].as_int(), 0);  // COUNT(qty) skips NULL
}

TEST(ExecutorTest, IntegerOverflowNeverWraps) {
  // SUM finishes as DOUBLE once its running sum leaves int64; INT
  // arithmetic in a Function fails instead of wrapping.
  Database src("src");
  storage::TableSchema schema("big");
  ASSERT_TRUE(schema.AddColumn({"g", storage::DataType::kString, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"v", storage::DataType::kInt64, true}).ok());
  Table* t = *src.CreateTable(schema);
  ASSERT_TRUE(t->InsertAll({{Value::String("a"), Value::Int(INT64_MAX)},
                            {Value::String("a"), Value::Int(1)},
                            {Value::String("b"), Value::Int(1)},
                            {Value::String("b"), Value::Int(2)}})
                  .ok());
  Database target("dw");
  auto out = RunPipeline(
      &src, &target,
      {MakeNode("ag", OpType::kAggregation,
                {{"group", "g"}, {"aggs", "SUM(v) AS total"}})},
      "big");
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ((*out)->num_rows(), 2u);
  EXPECT_DOUBLE_EQ((*out)->rows()[0][1].as_double(), 0x1p63);
  EXPECT_DOUBLE_EQ((*out)->rows()[1][1].as_double(), 3.0);

  Database target2("dw");
  auto failed = RunPipeline(
      &src, &target2,
      {MakeNode("fn", OpType::kFunction, {{"column", "w"}, {"expr", "v * 2"}})},
      "big");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInvalidArgument()) << failed.status();
  EXPECT_EQ(failed.status().message(),
            "node 'fn' (Function): integer overflow: 9223372036854775807 * 2");
}

TEST(ExecutorTest, SortOrdersRows) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out = RunPipeline(src.get(), &target,
                         {MakeNode("so", OpType::kSort,
                                   {{"by", "qty"}, {"desc", "true"}})});
  ASSERT_TRUE(out.ok()) << out.status();
  // NULL sorts first ascending, so descending it is last.
  EXPECT_EQ((*out)->rows()[0][2].as_int(), 5);
  EXPECT_TRUE((*out)->rows()[3][2].is_null());
}

TEST(ExecutorTest, SurrogateKeyAssignsDenseIds) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out = RunPipeline(src.get(), &target,
                         {MakeNode("sk", OpType::kSurrogateKey,
                                   {{"column", "pid"}, {"keys", "product"}})});
  ASSERT_TRUE(out.ok()) << out.status();
  auto idx = (*out)->schema().ColumnIndex("pid");
  ASSERT_TRUE(idx.has_value());
  // products a,b,a,c -> ids 1,2,1,3
  EXPECT_EQ((*out)->rows()[0][*idx].as_int(), 1);
  EXPECT_EQ((*out)->rows()[1][*idx].as_int(), 2);
  EXPECT_EQ((*out)->rows()[2][*idx].as_int(), 1);
  EXPECT_EQ((*out)->rows()[3][*idx].as_int(), 3);
}

TEST(ExecutorTest, InnerJoinMatchesAndDropsNulls) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow("j");
  ASSERT_TRUE(flow.AddNode(MakeNode("s", OpType::kDatastore,
                                    {{"table", "sales"}}))
                  .ok());
  ASSERT_TRUE(flow.AddNode(MakeNode("p", OpType::kDatastore,
                                    {{"table", "products"}}))
                  .ok());
  ASSERT_TRUE(flow.AddNode(MakeNode("j", OpType::kJoin,
                                    {{"left", "product"},
                                     {"right", "prod_name"}}))
                  .ok());
  ASSERT_TRUE(
      flow.AddNode(MakeNode("l", OpType::kLoader, {{"table", "out"}})).ok());
  ASSERT_TRUE(flow.AddEdge("s", "j").ok());
  ASSERT_TRUE(flow.AddEdge("p", "j").ok());
  ASSERT_TRUE(flow.AddEdge("j", "l").ok());
  Executor executor(src.get(), &target);
  auto report = executor.Run(flow);
  ASSERT_TRUE(report.ok()) << report.status();
  const Table& out = **target.GetTable("out");
  EXPECT_EQ(out.num_rows(), 3u);  // product 'c' has no match
  EXPECT_EQ(out.schema().num_columns(), 6u);
}

TEST(ExecutorTest, LeftJoinKeepsUnmatched) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow("j");
  ASSERT_TRUE(flow.AddNode(MakeNode("s", OpType::kDatastore,
                                    {{"table", "sales"}}))
                  .ok());
  ASSERT_TRUE(flow.AddNode(MakeNode("p", OpType::kDatastore,
                                    {{"table", "products"}}))
                  .ok());
  ASSERT_TRUE(flow.AddNode(MakeNode("j", OpType::kJoin,
                                    {{"left", "product"},
                                     {"right", "prod_name"},
                                     {"type", "left"}}))
                  .ok());
  ASSERT_TRUE(
      flow.AddNode(MakeNode("l", OpType::kLoader, {{"table", "out"}})).ok());
  ASSERT_TRUE(flow.AddEdge("s", "j").ok());
  ASSERT_TRUE(flow.AddEdge("p", "j").ok());
  ASSERT_TRUE(flow.AddEdge("j", "l").ok());
  Executor executor(src.get(), &target);
  ASSERT_TRUE(executor.Run(flow).ok());
  const Table& out = **target.GetTable("out");
  EXPECT_EQ(out.num_rows(), 4u);
  auto cpos = out.ScanEquals("product", Value::String("c"));
  ASSERT_EQ(cpos.size(), 1u);
  EXPECT_TRUE(out.rows()[cpos[0]][5].is_null());  // category NULL-padded
}

TEST(ExecutorTest, UnionConcatenates) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow("u");
  for (const char* id : {"a", "b"}) {
    ASSERT_TRUE(flow.AddNode(MakeNode(id, OpType::kDatastore,
                                      {{"table", "sales"}}))
                    .ok());
  }
  ASSERT_TRUE(flow.AddNode(MakeNode("u", OpType::kUnion, {})).ok());
  ASSERT_TRUE(
      flow.AddNode(MakeNode("l", OpType::kLoader, {{"table", "out"}})).ok());
  ASSERT_TRUE(flow.AddEdge("a", "u").ok());
  ASSERT_TRUE(flow.AddEdge("b", "u").ok());
  ASSERT_TRUE(flow.AddEdge("u", "l").ok());
  Executor executor(src.get(), &target);
  ASSERT_TRUE(executor.Run(flow).ok());
  EXPECT_EQ((*target.GetTable("out"))->num_rows(), 8u);
}

TEST(ExecutorTest, LoaderWithKeysIsIdempotent) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out1 = RunPipeline(src.get(), &target, {}, "sales", "id");
  ASSERT_TRUE(out1.ok()) << out1.status();
  EXPECT_EQ((*out1)->num_rows(), 4u);
  // Re-running the same load writes nothing new.
  auto out2 = RunPipeline(src.get(), &target, {}, "sales", "id");
  ASSERT_TRUE(out2.ok()) << out2.status();
  EXPECT_EQ((*out2)->num_rows(), 4u);
}

TEST(ExecutorTest, DeltaLoadAfterSourceGrowth) {
  // Re-running a flow into the same target after the source grew loads
  // only the new rows (keyed loaders skip/merge existing keys).
  auto src = MakeTinySource();
  Database target("dw");
  auto out1 = RunPipeline(src.get(), &target, {}, "sales", "id");
  ASSERT_TRUE(out1.ok());
  EXPECT_EQ((*out1)->num_rows(), 4u);
  storage::Table* sales = *src->GetTable("sales");
  ASSERT_TRUE(sales
                  ->Insert({Value::Int(5), Value::String("d"), Value::Int(9),
                            Value::Double(1.25)})
                  .ok());
  auto out2 = RunPipeline(src.get(), &target, {}, "sales", "id");
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ((*out2)->num_rows(), 5u);
  auto hits = (*out2)->ScanEquals("id", Value::Int(5));
  ASSERT_EQ(hits.size(), 1u);
}

TEST(ExecutorTest, EmptyLoadDefersTableCreation) {
  auto src = MakeTinySource();
  Database target("dw");
  // A selection that matches nothing: the loader must not create a
  // typeless table.
  auto out = RunPipeline(
      src.get(), &target,
      {MakeNode("sel", OpType::kSelection, {{"predicate", "qty > 999"}})},
      "sales", "id");
  EXPECT_TRUE(out.status().IsNotFound());  // "out" never created
  // A later non-empty load creates it with proper types.
  auto out2 = RunPipeline(src.get(), &target, {}, "sales", "id");
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ((*out2)->schema().columns()[0].type, storage::DataType::kInt64);
}

TEST(ExecutorTest, ReportCountsRowsAndLoads) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow("t");
  ASSERT_TRUE(flow.AddNode(MakeNode("ds", OpType::kDatastore,
                                    {{"table", "sales"}}))
                  .ok());
  ASSERT_TRUE(flow.AddNode(MakeNode("ex", OpType::kExtraction, {})).ok());
  ASSERT_TRUE(flow.AddNode(MakeNode("ld", OpType::kLoader,
                                    {{"table", "out"}}))
                  .ok());
  ASSERT_TRUE(flow.AddEdge("ds", "ex").ok());
  ASSERT_TRUE(flow.AddEdge("ex", "ld").ok());
  Executor executor(src.get(), &target);
  auto report = executor.Run(flow);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->loaded.at("out"), 4);
  EXPECT_EQ(report->nodes.size(), 3u);
  EXPECT_EQ(report->rows_processed, 8);  // 0 + 4 + 4
  EXPECT_GE(report->total_millis, 0.0);
}

TEST(ExecutorTest, ErrorsCarryNodeContext) {
  auto src = MakeTinySource();
  Database target("dw");
  auto out = RunPipeline(src.get(), &target,
                         {MakeNode("sel", OpType::kSelection,
                                   {{"predicate", "ghost > 1"}})});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("sel"), std::string::npos);
}

// --- equivalence rules -------------------------------------------------------

TableColumns ColumnsOf(const Database& db) {
  TableColumns out;
  for (const std::string& name : db.TableNames()) {
    std::vector<std::string> cols;
    for (const storage::Column& c : (*db.GetTable(name))->schema().columns()) {
      cols.push_back(c.name);
    }
    out[name] = std::move(cols);
  }
  return out;
}

// Flow: lineitem x part join, selection on part columns above the join.
Flow MakeJoinWithLateSelection() {
  Flow flow("f");
  EXPECT_TRUE(flow.AddNode(MakeNode("dsl", OpType::kDatastore,
                                    {{"table", "lineitem"}}))
                  .ok());
  EXPECT_TRUE(flow.AddNode(MakeNode("dsp", OpType::kDatastore,
                                    {{"table", "part"}}))
                  .ok());
  EXPECT_TRUE(flow.AddNode(MakeNode("j", OpType::kJoin,
                                    {{"left", "l_partkey"},
                                     {"right", "p_partkey"}}))
                  .ok());
  EXPECT_TRUE(flow.AddNode(MakeNode("sel", OpType::kSelection,
                                    {{"predicate", "p_type = 'SMALL'"}}))
                  .ok());
  EXPECT_TRUE(flow.AddNode(MakeNode("ld", OpType::kLoader,
                                    {{"table", "out"}}))
                  .ok());
  EXPECT_TRUE(flow.AddEdge("dsl", "j").ok());
  EXPECT_TRUE(flow.AddEdge("dsp", "j").ok());
  EXPECT_TRUE(flow.AddEdge("j", "sel").ok());
  EXPECT_TRUE(flow.AddEdge("sel", "ld").ok());
  return flow;
}

TEST(EquivalenceTest, PushSelectionBelowJoin) {
  Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.001, 3}).ok());
  Flow flow = MakeJoinWithLateSelection();
  auto pushed = PushSelectionDown(&flow, ColumnsOf(src));
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_TRUE(*pushed);
  // Selection now sits between dsp and the join.
  EXPECT_EQ(flow.Predecessors("sel"), (std::vector<std::string>{"dsp"}));
  EXPECT_EQ(flow.Successors("sel"), (std::vector<std::string>{"j"}));
  EXPECT_EQ(flow.Successors("j"), (std::vector<std::string>{"ld"}));
  // No second push possible.
  auto again = PushSelectionDown(&flow, ColumnsOf(src));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(EquivalenceTest, PushPreservesResults) {
  Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.001, 3}).ok());
  Flow original = MakeJoinWithLateSelection();
  Flow rewritten = original.Clone();
  auto n = Normalize(&rewritten, ColumnsOf(src));
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_GE(*n, 1);

  Database t1("a"), t2("b");
  Executor e1(&src, &t1), e2(&src, &t2);
  auto r1 = e1.Run(original);
  auto r2 = e2.Run(rewritten);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  const Table& o1 = **t1.GetTable("out");
  const Table& o2 = **t2.GetTable("out");
  ASSERT_EQ(o1.num_rows(), o2.num_rows());
  // The rewritten flow processes fewer rows (the point of the rule).
  EXPECT_LT(r2->rows_processed, r1->rows_processed);
}

TEST(EquivalenceTest, CanonicalSelectionOrderConverges) {
  Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.001, 3}).ok());
  // Two flows applying the same two selections in opposite orders.
  auto make = [&](bool reversed) {
    Flow flow("f");
    EXPECT_TRUE(flow.AddNode(MakeNode("ds", OpType::kDatastore,
                                      {{"table", "lineitem"}}))
                    .ok());
    std::string p1 = "l_quantity > 10";
    std::string p2 = "l_discount < 0.05";
    if (reversed) std::swap(p1, p2);
    EXPECT_TRUE(flow.AddNode(MakeNode("s1", OpType::kSelection,
                                      {{"predicate", p1}}))
                    .ok());
    EXPECT_TRUE(flow.AddNode(MakeNode("s2", OpType::kSelection,
                                      {{"predicate", p2}}))
                    .ok());
    EXPECT_TRUE(flow.AddNode(MakeNode("ld", OpType::kLoader,
                                      {{"table", "out"}}))
                    .ok());
    EXPECT_TRUE(flow.AddEdge("ds", "s1").ok());
    EXPECT_TRUE(flow.AddEdge("s1", "s2").ok());
    EXPECT_TRUE(flow.AddEdge("s2", "ld").ok());
    return flow;
  };
  Flow a = make(false), b = make(true);
  ASSERT_TRUE(Normalize(&a, ColumnsOf(src)).ok());
  ASSERT_TRUE(Normalize(&b, ColumnsOf(src)).ok());
  // After normalization both s1 nodes carry the same predicate.
  EXPECT_EQ(a.GetNode("s1").value()->params.at("predicate"),
            b.GetNode("s1").value()->params.at("predicate"));
  EXPECT_EQ(a.GetNode("s2").value()->params.at("predicate"),
            b.GetNode("s2").value()->params.at("predicate"));
}

TEST(EquivalenceTest, RedundantProjectionRemoved) {
  Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.001, 3}).ok());
  Flow flow("f");
  ASSERT_TRUE(flow.AddNode(MakeNode("ds", OpType::kDatastore,
                                    {{"table", "part"}}))
                  .ok());
  ASSERT_TRUE(
      flow.AddNode(MakeNode(
              "pr", OpType::kProjection,
              {{"columns", "p_partkey,p_name,p_brand,p_type,p_retailprice"}}))
          .ok());
  ASSERT_TRUE(flow.AddNode(MakeNode("ld", OpType::kLoader,
                                    {{"table", "out"}}))
                  .ok());
  ASSERT_TRUE(flow.AddEdge("ds", "pr").ok());
  ASSERT_TRUE(flow.AddEdge("pr", "ld").ok());
  auto removed = RemoveRedundantProjection(&flow, ColumnsOf(src));
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_TRUE(*removed);
  EXPECT_FALSE(flow.HasNode("pr"));
  EXPECT_EQ(flow.Successors("ds"), (std::vector<std::string>{"ld"}));
}

TEST(EquivalenceTest, CostModelAgreesWithMeasuredRowReduction) {
  // The configurable cost model must rank flow variants the same way the
  // engine measures them: the normalized (selection-pushed) flow is both
  // estimated and measured cheaper.
  Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.002, 13}).ok());
  std::map<std::string, int64_t> rows;
  for (const std::string& name : src.TableNames()) {
    rows[name] = static_cast<int64_t>((*src.GetTable(name))->num_rows());
  }
  Flow original = MakeJoinWithLateSelection();
  Flow normalized = original.Clone();
  ASSERT_TRUE(quarry::etl::Normalize(&normalized, ColumnsOf(src)).ok());

  auto est_original = EstimateCost(original, rows);
  auto est_normalized = EstimateCost(normalized, rows);
  ASSERT_TRUE(est_original.ok());
  ASSERT_TRUE(est_normalized.ok());
  EXPECT_LT(est_normalized->total_cost, est_original->total_cost);

  Database t1("a"), t2("b");
  auto run_original = Executor(&src, &t1).Run(original);
  auto run_normalized = Executor(&src, &t2).Run(normalized);
  ASSERT_TRUE(run_original.ok());
  ASSERT_TRUE(run_normalized.ok());
  EXPECT_LT(run_normalized->rows_processed, run_original->rows_processed);
  // Same prediction direction as measurement: the model is usable as the
  // integrator's quality factor.
}

TEST(EquivalenceTest, PushSkippedWhenJoinHasOtherConsumers) {
  Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.001, 3}).ok());
  Flow flow = MakeJoinWithLateSelection();
  // Attach a second consumer to the join: pushing would now change what the
  // other branch sees, so the rule must not fire on the join.
  ASSERT_TRUE(flow.AddNode(MakeNode("ld2", OpType::kLoader,
                                    {{"table", "out2"}}))
                  .ok());
  ASSERT_TRUE(flow.AddEdge("j", "ld2").ok());
  auto pushed = PushSelectionDown(&flow, ColumnsOf(src));
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_FALSE(*pushed);
}

// ---------------------------------------------------------------------------
// Retry backoff determinism (docs/ROBUSTNESS.md: retries must be replayable).

TEST(RetryBackoffTest, SameSeedYieldsTheIdenticalDelaySequence) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_millis = 2.0;
  policy.max_backoff_millis = 50.0;
  policy.jitter_fraction = 0.4;
  policy.jitter_seed = 42;

  auto sequence = [&policy]() {
    Prng prng(policy.jitter_seed);
    std::vector<double> delays;
    for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
      delays.push_back(RetryBackoffMillis(policy, attempt, &prng));
    }
    return delays;
  };
  std::vector<double> first = sequence();
  ASSERT_EQ(first.size(), 9u);
  EXPECT_EQ(sequence(), first);  // bitwise-identical replay, not just close

  // A different seed must actually change the jittered delays.
  policy.jitter_seed = 43;
  EXPECT_NE(sequence(), first);
}

TEST(RetryBackoffTest, BoundsHoldThroughMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_backoff_millis = 3.0;
  policy.max_backoff_millis = 48.0;
  policy.jitter_fraction = 0.5;
  policy.jitter_seed = 7;

  Prng prng(policy.jitter_seed);
  double previous_cap = 0.0;
  for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
    double delay = RetryBackoffMillis(policy, attempt, &prng);
    double cap = std::min(3.0 * std::pow(2.0, attempt - 1), 48.0);
    EXPECT_GE(delay, (1.0 - policy.jitter_fraction) * cap) << attempt;
    EXPECT_LE(delay, cap) << attempt;
    EXPECT_GE(cap, previous_cap);  // schedule never shrinks
    previous_cap = cap;
  }
  // Deep into the schedule the cap has saturated at max_backoff_millis.
  Prng tail(policy.jitter_seed);
  for (int attempt = 20; attempt < 24; ++attempt) {
    EXPECT_LE(RetryBackoffMillis(policy, attempt, &tail), 48.0);
  }
}

}  // namespace
}  // namespace quarry::etl
