#include "requirements/query_parser.h"

#include <gtest/gtest.h>

#include "datagen/tpch.h"
#include "core/quarry.h"
#include "ontology/tpch_ontology.h"

namespace quarry::req {
namespace {

TEST(QueryParserTest, PaperIntroductionSentence) {
  // "Analyze the revenue from the last year's sales, per products that are
  // ordered from Spain." — as the textual notation.
  const char* text = R"(
ANALYZE revenue ON Lineitem
MEASURE revenue = Lineitem.l_extendedprice * (1 - Lineitem.l_discount) SUM
BY Part.p_name
WHERE Nation.n_name = 'SPAIN' AND Orders.o_orderdate >= '1995-01-01'
)";
  auto ir = ParseRequirementQuery(text);
  ASSERT_TRUE(ir.ok()) << ir.status();
  EXPECT_EQ(ir->id, "revenue");
  EXPECT_EQ(ir->focus_concept, "Lineitem");
  ASSERT_EQ(ir->measures.size(), 1u);
  EXPECT_EQ(ir->measures[0].aggregation, md::AggFunc::kSum);
  EXPECT_EQ(ir->measures[0].expression,
            "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)");
  ASSERT_EQ(ir->dimensions.size(), 1u);
  EXPECT_EQ(ir->dimensions[0].property_id, "Part.p_name");
  ASSERT_EQ(ir->slicers.size(), 2u);
  EXPECT_EQ(ir->slicers[0].value, "SPAIN");
  EXPECT_EQ(ir->slicers[1].op, ">=");
  EXPECT_EQ(ir->slicers[1].value, "1995-01-01");
}

TEST(QueryParserTest, MultipleMeasuresAndDimensions) {
  const char* text =
      "ANALYZE sales AS \"Sales overview\" ON Lineitem "
      "MEASURE qty = Lineitem.l_quantity SUM, "
      "avg_discount = Lineitem.l_discount AVG "
      "BY Part.p_brand, Supplier.s_name, Orders.o_orderdate";
  auto ir = ParseRequirementQuery(text);
  ASSERT_TRUE(ir.ok()) << ir.status();
  EXPECT_EQ(ir->name, "Sales overview");
  ASSERT_EQ(ir->measures.size(), 2u);
  EXPECT_EQ(ir->measures[1].id, "avg_discount");
  EXPECT_EQ(ir->measures[1].aggregation, md::AggFunc::kAvg);
  EXPECT_EQ(ir->dimensions.size(), 3u);
  EXPECT_TRUE(ir->slicers.empty());
}

TEST(QueryParserTest, AggregationDefaultsToSum) {
  auto ir = ParseRequirementQuery(
      "ANALYZE q MEASURE m = Lineitem.l_quantity BY Part.p_name");
  ASSERT_TRUE(ir.ok()) << ir.status();
  EXPECT_EQ(ir->measures[0].aggregation, md::AggFunc::kSum);
  EXPECT_TRUE(ir->focus_concept.empty());  // Interpreter derives it.
}

TEST(QueryParserTest, MultipleMeasuresWithoutExplicitAgg) {
  auto ir = ParseRequirementQuery(
      "ANALYZE q MEASURE a = Lineitem.l_quantity, "
      "b = Lineitem.l_tax BY Part.p_name");
  ASSERT_TRUE(ir.ok()) << ir.status();
  ASSERT_EQ(ir->measures.size(), 2u);
  EXPECT_EQ(ir->measures[0].expression, "Lineitem.l_quantity");
  EXPECT_EQ(ir->measures[1].expression, "Lineitem.l_tax");
}

TEST(QueryParserTest, NumericLiteralInWhere) {
  auto ir = ParseRequirementQuery(
      "ANALYZE q MEASURE m = Lineitem.l_quantity BY Part.p_name "
      "WHERE Lineitem.l_quantity > 25");
  ASSERT_TRUE(ir.ok()) << ir.status();
  ASSERT_EQ(ir->slicers.size(), 1u);
  EXPECT_EQ(ir->slicers[0].op, ">");
  EXPECT_EQ(ir->slicers[0].value, "25");
}

TEST(QueryParserTest, CaseInsensitiveKeywords) {
  auto ir = ParseRequirementQuery(
      "analyze q on Lineitem measure m = Lineitem.l_quantity sum "
      "by Part.p_name where Part.p_type = 'SMALL'");
  ASSERT_TRUE(ir.ok()) << ir.status();
  EXPECT_EQ(ir->focus_concept, "Lineitem");
}

TEST(QueryParserTest, Errors) {
  EXPECT_TRUE(ParseRequirementQuery("").status().IsParseError());
  EXPECT_TRUE(ParseRequirementQuery("SELECT 1").status().IsParseError());
  EXPECT_TRUE(ParseRequirementQuery("ANALYZE q BY Part.p_name")
                  .status()
                  .IsParseError());  // no MEASURE
  EXPECT_TRUE(ParseRequirementQuery("ANALYZE q MEASURE m = Lineitem.l_q")
                  .status()
                  .IsParseError());  // no BY
  EXPECT_TRUE(
      ParseRequirementQuery(
          "ANALYZE q MEASURE m = BY Part.p_name")  // empty expression
          .status()
          .IsParseError());
  EXPECT_TRUE(
      ParseRequirementQuery(
          "ANALYZE q MEASURE m = Lineitem.l_quantity BY Part.p_name junk")
          .status()
          .IsParseError());  // trailing input
  EXPECT_TRUE(
      ParseRequirementQuery(
          "ANALYZE q MEASURE m = 1 +* 2 BY Part.p_name")
          .status()
          .IsParseError());  // bad expression
}

TEST(QueryParserTest, RoundtripThroughText) {
  const char* text =
      "ANALYZE revenue AS \"Revenue\" ON Lineitem "
      "MEASURE revenue = Lineitem.l_extendedprice * (1 - "
      "Lineitem.l_discount) SUM "
      "BY Part.p_name, Supplier.s_name "
      "WHERE Nation.n_name = 'SPAIN' AND Lineitem.l_quantity >= 5";
  auto ir1 = ParseRequirementQuery(text);
  ASSERT_TRUE(ir1.ok()) << ir1.status();
  std::string rendered = RequirementQueryToString(*ir1);
  auto ir2 = ParseRequirementQuery(rendered);
  ASSERT_TRUE(ir2.ok()) << ir2.status() << "\n" << rendered;
  EXPECT_EQ(ir1->id, ir2->id);
  EXPECT_EQ(ir1->name, ir2->name);
  EXPECT_EQ(ir1->measures.size(), ir2->measures.size());
  EXPECT_EQ(ir1->measures[0].expression, ir2->measures[0].expression);
  EXPECT_EQ(ir1->dimensions.size(), ir2->dimensions.size());
  ASSERT_EQ(ir1->slicers.size(), ir2->slicers.size());
  EXPECT_EQ(ir1->slicers[1].value, ir2->slicers[1].value);
}

TEST(QueryParserTest, EndToEndThroughQuarryImporter) {
  storage::Database src("tpch");
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.01, 71}).ok());
  auto quarry = core::Quarry::Create(ontology::BuildTpchOntology(),
                                     ontology::BuildTpchMappings(), &src);
  ASSERT_TRUE(quarry.ok()) << quarry.status();
  auto outcome = (*quarry)->AddRequirementFromQuery(
      "ANALYZE revenue ON Lineitem "
      "MEASURE revenue = Lineitem.l_extendedprice * (1 - "
      "Lineitem.l_discount) SUM "
      "BY Part.p_name, Supplier.s_name "
      "WHERE Nation.n_name = 'SPAIN'");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ((*quarry)->requirements().size(), 1u);
  auto deployment = (*quarry)->DeployServing();
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ASSERT_TRUE(deployment->success);
  EXPECT_GT((*(*quarry)->warehouse().Acquire()->db().GetTable(
                 "fact_table_revenue"))
                ->num_rows(),
            0u);
  // Unknown importer name fails cleanly.
  EXPECT_TRUE((*quarry)->repository().Import("yaml", "x").status()
                  .IsNotFound());
}

}  // namespace
}  // namespace quarry::req
