// End-to-end coverage of the second (retail) demo domain: the pipeline is
// domain-independent — swap the ontology + mappings + source and the whole
// lifecycle works unchanged.

#include "datagen/retail.h"

#include <gtest/gtest.h>

#include "core/quarry.h"
#include "olap/cube_query.h"

namespace quarry::datagen {
namespace {

class RetailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(PopulateRetail(&src_, {0.02, 9}).ok());
  }
  storage::Database src_;
};

TEST_F(RetailTest, GeneratorProducesConsistentData) {
  for (const char* table :
       {"retail_region", "store", "product", "retail_customer", "sale"}) {
    ASSERT_TRUE(src_.HasTable(table)) << table;
    EXPECT_GT((*src_.GetTable(table))->num_rows(), 0u) << table;
  }
  EXPECT_TRUE(src_.CheckReferentialIntegrity().ok());
}

TEST_F(RetailTest, GeneratorIsDeterministic) {
  storage::Database a, b;
  ASSERT_TRUE(PopulateRetail(&a, {0.005, 3}).ok());
  ASSERT_TRUE(PopulateRetail(&b, {0.005, 3}).ok());
  const storage::Table& sa = **a.GetTable("sale");
  const storage::Table& sb = **b.GetTable("sale");
  ASSERT_EQ(sa.num_rows(), sb.num_rows());
  for (size_t i = 0; i < sa.num_rows(); ++i) {
    EXPECT_TRUE(sa.row(i)[6].SameAs(sb.row(i)[6]));
  }
}

TEST_F(RetailTest, OntologyAndMappingsValidate) {
  ontology::Ontology onto = BuildRetailOntology();
  ontology::SourceMapping mapping = BuildRetailMappings();
  EXPECT_TRUE(mapping.Validate(onto).ok());
  // Sale fans out functionally to all analysis concepts.
  auto reachable = onto.FunctionallyReachable("Sale");
  EXPECT_EQ(reachable.size(), 4u);
  EXPECT_TRUE(onto.FindFunctionalPath("Sale", "Region").ok());
}

TEST_F(RetailTest, FullLifecycleOnRetailDomain) {
  auto quarry = core::Quarry::Create(BuildRetailOntology(),
                                     BuildRetailMappings(), &src_);
  ASSERT_TRUE(quarry.ok()) << quarry.status();

  // The elicitor ranks Sale as the subject of analysis.
  auto facts = (*quarry)->elicitor().SuggestFacts();
  ASSERT_FALSE(facts.empty());
  EXPECT_EQ(facts[0].concept_id, "Sale");

  auto outcome = (*quarry)->AddRequirementFromQuery(
      "ANALYZE turnover ON Sale "
      "MEASURE turnover = Sale.sl_amount * (1 - Sale.sl_discount) SUM "
      "BY Product.pr_category, Store.st_city "
      "WHERE Customer.cu_segment = 'LOYALTY'");
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  // Second requirement at region grain: Region folds into Store's
  // hierarchy (the integrator behaves identically across domains).
  auto outcome2 = (*quarry)->AddRequirementFromQuery(
      "ANALYZE units_by_region ON Sale "
      "MEASURE units = Sale.sl_units SUM BY Region.rr_name");
  ASSERT_TRUE(outcome2.ok()) << outcome2.status();
  EXPECT_TRUE(
      (*quarry)->schema().GetDimension("Region").status().IsNotFound());
  const md::Dimension& store_dim = **(*quarry)->schema().GetDimension("Store");
  EXPECT_EQ(store_dim.levels.back().concept_id, "Region");

  auto deployment = (*quarry)->DeployServing();
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ASSERT_TRUE(deployment->success);
  EXPECT_TRUE(deployment->report.referential_integrity_ok);
  auto dw = (*quarry)->warehouse().Acquire();
  ASSERT_TRUE(dw.ok()) << dw.status();
  EXPECT_GT((*dw->db().GetTable("fact_table_turnover"))->num_rows(), 0u);

  // Roll up turnover per category on the deployed warehouse.
  olap::CubeQueryEngine engine(&(*quarry)->schema(), &(*quarry)->mapping(),
                               &dw->db());
  olap::CubeQuery query;
  query.fact = "fact_table_turnover";
  query.group_by = {"pr_category"};
  query.measures = {{"turnover", md::AggFunc::kSum, ""}};
  auto result = engine.Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->rows.size(), 0u);
  EXPECT_LE(result->rows.size(), 6u);  // six product categories
}

TEST_F(RetailTest, CrossDomainSessionsAreIndependent) {
  // Two Quarry instances over different domains coexist without clashes.
  auto retail = core::Quarry::Create(BuildRetailOntology(),
                                     BuildRetailMappings(), &src_);
  ASSERT_TRUE(retail.ok());
  EXPECT_TRUE((*retail)->ontology().HasConcept("Sale"));
  EXPECT_FALSE((*retail)->ontology().HasConcept("Lineitem"));
}

}  // namespace
}  // namespace quarry::datagen
