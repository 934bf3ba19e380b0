#include "olap/cube_query.h"

#include <gtest/gtest.h>

#include <map>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "ontology/tpch_ontology.h"

namespace quarry::olap {
namespace {

using req::InformationRequirement;
using storage::Value;

class CubeQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::PopulateTpch(&src_, {0.005, 31}).ok());
    auto quarry = core::Quarry::Create(ontology::BuildTpchOntology(),
                                       ontology::BuildTpchMappings(), &src_);
    ASSERT_TRUE(quarry.ok()) << quarry.status();
    quarry_ = std::move(*quarry);
    InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_type"});
    ir.dimensions.push_back({"Supplier.s_name"});
    ASSERT_TRUE(quarry_->AddRequirement(ir).ok());
    auto deployment = quarry_->DeployServing();
    ASSERT_TRUE(deployment.ok()) << deployment.status();
    ASSERT_TRUE(deployment->success);
    auto pin = quarry_->warehouse().Acquire();
    ASSERT_TRUE(pin.ok()) << pin.status();
    pin_ = std::move(*pin);
    engine_ = std::make_unique<CubeQueryEngine>(
        &quarry_->schema(), &quarry_->mapping(), &pin_.db());
  }

  const storage::Database& warehouse() const { return pin_.db(); }

  storage::Database src_;
  std::unique_ptr<core::Quarry> quarry_;
  storage::GenerationStore::Pin pin_;
  std::unique_ptr<CubeQueryEngine> engine_;
};

TEST_F(CubeQueryTest, RollUpByDimensionAttribute) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", md::AggFunc::kSum, "total_revenue"}};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"p_type", "total_revenue"}));
  // TPC-H part types: 5 distinct values.
  EXPECT_LE(result->rows.size(), 5u);
  EXPECT_GT(result->rows.size(), 0u);
  // The roll-up preserves the grand total.
  double rolled_up = 0;
  for (const storage::Row& row : result->rows) {
    rolled_up += row[1].as_double();
  }
  double fact_total = 0;
  const storage::Table& fact = **warehouse().GetTable("fact_table_revenue");
  auto rev = *fact.schema().ColumnIndex("revenue");
  for (const storage::Row& row : fact.rows()) {
    fact_total += row[rev].as_double();
  }
  EXPECT_NEAR(rolled_up, fact_total, 1e-6 * std::abs(fact_total));
}

TEST_F(CubeQueryTest, GroupByFactColumnNeedsNoJoin) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_partkey"};  // fact-local (grain column)
  query.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto flow = engine_->Compile(query);
  ASSERT_TRUE(flow.ok()) << flow.status();
  for (const auto& [id, node] : flow->nodes()) {
    EXPECT_NE(node.type, etl::OpType::kJoin) << id;
  }
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->rows.size(), 0u);
}

TEST_F(CubeQueryTest, SliceWithDimensionFilter) {
  CubeQuery all;
  all.fact = "fact_table_revenue";
  all.group_by = {"p_type"};
  all.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto unsliced = engine_->Execute(all);
  ASSERT_TRUE(unsliced.ok());

  CubeQuery sliced = all;
  sliced.filters = {"p_type = 'SMALL'"};
  auto result = engine_->Execute(sliced);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].as_string(), "SMALL");
  EXPECT_LT(result->rows.size(), unsliced->rows.size());
}

TEST_F(CubeQueryTest, MultipleMeasuresAndFunctions) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", md::AggFunc::kSum, "sum_rev"},
                    {"revenue", md::AggFunc::kAvg, "avg_rev"},
                    {"revenue", md::AggFunc::kMax, "max_rev"},
                    {"revenue", md::AggFunc::kCount, "n"}};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->columns.size(), 5u);
  for (const storage::Row& row : result->rows) {
    double sum = row[1].as_double();
    double avg = row[2].as_double();
    double max = row[3].as_double();
    int64_t n = row[4].as_int();
    EXPECT_GT(n, 0);
    EXPECT_NEAR(avg, sum / static_cast<double>(n), 1e-9 * std::abs(sum));
    EXPECT_LE(avg, max + 1e-9);
  }
}

TEST_F(CubeQueryTest, TwoDimensionGroupBy) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type", "s_name"};
  query.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->columns.size(), 3u);
  // Finer grain -> at least as many rows as the single-dim roll-up.
  CubeQuery coarse = query;
  coarse.group_by = {"p_type"};
  auto coarse_result = engine_->Execute(coarse);
  ASSERT_TRUE(coarse_result.ok());
  EXPECT_GE(result->rows.size(), coarse_result->rows.size());
}

TEST_F(CubeQueryTest, EmptyAnswerIsAnEmptyDataset) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", md::AggFunc::kSum, "total"}};
  auto answer = engine_->Execute(query);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_GT(answer->rows.size(), 0u);

  query.filters = {"p_type = 'NO SUCH TYPE'"};
  auto empty = engine_->Execute(query);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->rows.size(), 0u);
  EXPECT_EQ(empty->columns, answer->columns);

  // The served path answers the same way.
  auto served = quarry_->SubmitQuery(query);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->data.rows.size(), 0u);
  EXPECT_EQ(served->data.columns, answer->columns);
}

TEST_F(CubeQueryTest, ErrorsAreDescriptive) {
  CubeQuery bad_fact;
  bad_fact.fact = "fact_ghost";
  bad_fact.measures = {{"revenue", md::AggFunc::kSum, ""}};
  EXPECT_TRUE(engine_->Execute(bad_fact).status().IsNotFound());

  CubeQuery bad_measure;
  bad_measure.fact = "fact_table_revenue";
  bad_measure.measures = {{"ghost", md::AggFunc::kSum, ""}};
  EXPECT_TRUE(engine_->Execute(bad_measure).status().IsNotFound());

  CubeQuery bad_column;
  bad_column.fact = "fact_table_revenue";
  bad_column.group_by = {"no_such_attribute"};
  bad_column.measures = {{"revenue", md::AggFunc::kSum, ""}};
  EXPECT_TRUE(engine_->Execute(bad_column).status().IsNotFound());

  CubeQuery no_measures;
  no_measures.fact = "fact_table_revenue";
  EXPECT_TRUE(engine_->Execute(no_measures).status().IsInvalidArgument());
}

TEST_F(CubeQueryTest, ResultMatchesDirectSourceComputation) {
  // Cross-check the whole pipeline: cube result == aggregating the source
  // tables directly (lineitem joined part on the fly).
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());

  std::map<std::string, double> expected;
  const storage::Table& lineitem = **src_.GetTable("lineitem");
  const storage::Table& part = **src_.GetTable("part");
  std::map<int64_t, std::string> part_type;
  for (const storage::Row& row : part.rows()) {
    part_type[row[0].as_int()] = row[3].as_string();
  }
  auto li_part = *lineitem.schema().ColumnIndex("l_partkey");
  auto li_price = *lineitem.schema().ColumnIndex("l_extendedprice");
  auto li_disc = *lineitem.schema().ColumnIndex("l_discount");
  for (const storage::Row& row : lineitem.rows()) {
    expected[part_type.at(row[li_part].as_int())] +=
        row[li_price].as_double() * (1.0 - row[li_disc].as_double());
  }
  ASSERT_EQ(result->rows.size(), expected.size());
  for (const storage::Row& row : result->rows) {
    double want = expected.at(row[0].as_string());
    EXPECT_NEAR(row[1].as_double(), want, 1e-6 * std::abs(want))
        << row[0].as_string();
  }
}

}  // namespace
}  // namespace quarry::olap
