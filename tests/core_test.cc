#include "core/quarry.h"

#include <gtest/gtest.h>

#include "datagen/tpch.h"
#include "ontology/tpch_ontology.h"
#include "requirements/workload.h"

namespace quarry::core {
namespace {

using req::InformationRequirement;

class QuarryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::PopulateTpch(&src_, {0.005, 29}).ok());
    auto quarry = Quarry::Create(ontology::BuildTpchOntology(),
                                 ontology::BuildTpchMappings(), &src_);
    ASSERT_TRUE(quarry.ok()) << quarry.status();
    quarry_ = std::move(*quarry);
  }

  static InformationRequirement RevenueIr() {
    InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_name"});
    ir.dimensions.push_back({"Supplier.s_name"});
    return ir;
  }

  static InformationRequirement NetprofitIr() {
    InformationRequirement ir;
    ir.id = "ir_netprofit";
    ir.name = "netprofit";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"netprofit",
         "Lineitem.l_extendedprice * (1 - Lineitem.l_discount) - "
         "Partsupp.ps_supplycost * Lineitem.l_quantity",
         md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_name"});
    return ir;
  }

  storage::Database src_;
  std::unique_ptr<Quarry> quarry_;
};

TEST_F(QuarryTest, CreateValidatesMappings) {
  ontology::SourceMapping bogus;
  ASSERT_TRUE(bogus.MapConcept("Ghost", "t", {"k"}).ok());
  auto bad = Quarry::Create(ontology::BuildTpchOntology(), std::move(bogus),
                            &src_);
  EXPECT_TRUE(bad.status().IsValidationError());
  EXPECT_TRUE(Quarry::Create(ontology::BuildTpchOntology(),
                             ontology::BuildTpchMappings(), nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(QuarryTest, CreateSeedsRepositoryWithSemanticMetadata) {
  EXPECT_EQ(quarry_->repository().Ids("ontologies"),
            (std::vector<std::string>{"tpch"}));
  EXPECT_EQ(quarry_->repository().Ids("mappings"),
            (std::vector<std::string>{"tpch"}));
  auto onto_doc = quarry_->repository().FetchXml("ontologies", "tpch");
  ASSERT_TRUE(onto_doc.ok());
  auto restored = ontology::Ontology::FromXml(**onto_doc);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_concepts(), 8u);
}

TEST_F(QuarryTest, AddRequirementRecordsEveryArtifact) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  EXPECT_EQ(quarry_->repository().Ids("xrq"),
            (std::vector<std::string>{"ir_revenue"}));
  EXPECT_EQ(quarry_->repository().Ids("partial_xmd"),
            (std::vector<std::string>{"ir_revenue"}));
  EXPECT_EQ(quarry_->repository().Ids("partial_xlm"),
            (std::vector<std::string>{"ir_revenue"}));
  EXPECT_EQ(quarry_->repository().Ids("unified_xmd"),
            (std::vector<std::string>{"unified"}));
  EXPECT_EQ(quarry_->repository().Ids("unified_xlm"),
            (std::vector<std::string>{"unified"}));
  // The stored xRQ parses back to the requirement.
  auto xrq = quarry_->repository().FetchXml("xrq", "ir_revenue");
  ASSERT_TRUE(xrq.ok());
  auto ir = req::FromXrq(**xrq);
  ASSERT_TRUE(ir.ok());
  EXPECT_EQ(ir->measures[0].id, "revenue");
}

TEST_F(QuarryTest, EndToEndLifecycle) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  auto outcome = quarry_->AddRequirement(NetprofitIr());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GE(outcome->etl.nodes_reused, 5);
  EXPECT_EQ(quarry_->requirements().size(), 2u);
  EXPECT_EQ(quarry_->schema().facts().size(), 2u);

  auto deployment = quarry_->DeployServing();
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ASSERT_TRUE(deployment->success);
  EXPECT_TRUE(deployment->report.referential_integrity_ok);
  auto dw = quarry_->warehouse().Acquire();
  ASSERT_TRUE(dw.ok()) << dw.status();
  EXPECT_GT((*dw->db().GetTable("fact_table_revenue"))->num_rows(), 0u);
  EXPECT_GT((*dw->db().GetTable("fact_table_netprofit"))->num_rows(), 0u);

  // Accommodate change: drop netprofit, design shrinks, redeploy works.
  ASSERT_TRUE(quarry_->RemoveRequirement("ir_netprofit").ok());
  EXPECT_EQ(quarry_->schema().facts().size(), 1u);
  EXPECT_TRUE(quarry_->repository().Ids("xrq") ==
              std::vector<std::string>{"ir_revenue"});
  auto redeployment = quarry_->DeployServing();
  ASSERT_TRUE(redeployment.ok()) << redeployment.status();
  ASSERT_TRUE(redeployment->success);
  EXPECT_FALSE(quarry_->warehouse().Acquire()->db().HasTable(
      "fact_table_netprofit"));
}

TEST_F(QuarryTest, RefreshPicksUpSourceGrowth) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  auto deployment = quarry_->DeployServing();
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ASSERT_TRUE(deployment->success);
  auto before = quarry_->warehouse().Acquire();
  ASSERT_TRUE(before.ok()) << before.status();
  size_t fact_before =
      (*before->db().GetTable("fact_table_revenue"))->num_rows();
  size_t dim_before = (*before->db().GetTable("dim_Part"))->num_rows();

  // New part + a lineitem selling it appear in the source.
  storage::Table* part = *src_.GetTable("part");
  int64_t new_partkey = static_cast<int64_t>(part->num_rows()) + 1;
  ASSERT_TRUE(part->Insert({storage::Value::Int(new_partkey),
                            storage::Value::String("shiny new part"),
                            storage::Value::String("Brand#99"),
                            storage::Value::String("SMALL"),
                            storage::Value::Double(1234.5)})
                  .ok());
  storage::Table* lineitem = *src_.GetTable("lineitem");
  ASSERT_TRUE(lineitem
                  ->Insert({storage::Value::Int(1),
                            storage::Value::Int(99),
                            storage::Value::Int(new_partkey),
                            storage::Value::Int(1),
                            storage::Value::Int(3),
                            storage::Value::Double(100.0),
                            storage::Value::Double(0.0),
                            storage::Value::Double(0.0),
                            storage::Value::DateYmd(1995, 6, 1),
                            storage::Value::String("N")})
                  .ok());

  auto refresh = quarry_->RefreshServing();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  auto after = quarry_->warehouse().Acquire();
  ASSERT_TRUE(after.ok()) << after.status();
  const storage::Database& dw = after->db();
  EXPECT_EQ((*dw.GetTable("dim_Part"))->num_rows(), dim_before + 1);
  EXPECT_GT((*dw.GetTable("fact_table_revenue"))->num_rows(), fact_before);
  EXPECT_TRUE(dw.CheckReferentialIntegrity().ok());
}

// The refresh oracle: a refreshed warehouse is byte-identical to what a
// fresh instance over the same source deploys for the same requirements.
uint64_t FreshDeployFingerprint(
    const storage::Database& src,
    const std::vector<InformationRequirement>& irs) {
  auto fresh = Quarry::Create(ontology::BuildTpchOntology(),
                              ontology::BuildTpchMappings(), &src);
  EXPECT_TRUE(fresh.ok()) << fresh.status();
  if (!fresh.ok()) return 0;
  for (const InformationRequirement& ir : irs) {
    EXPECT_TRUE((*fresh)->AddRequirement(ir).ok()) << ir.id;
  }
  auto deployment = (*fresh)->DeployServing();
  EXPECT_TRUE(deployment.ok() && deployment->success);
  return (*fresh)->warehouse().Acquire()->db().Fingerprint();
}

uint64_t ServedFingerprint(const Quarry& quarry) {
  return quarry.warehouse().Acquire()->db().Fingerprint();
}

TEST_F(QuarryTest, RefreshAnswersWhatAFreshDeployAnswers) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  ASSERT_TRUE(quarry_->AddRequirement(NetprofitIr()).ok());
  auto deployment = quarry_->DeployServing();
  ASSERT_TRUE(deployment.ok() && deployment->success);

  // A second line of lineitem row 0's order: same part, supplier and
  // measures, so it lands in fact groups that already exist.
  storage::Table* lineitem = *src_.GetTable("lineitem");
  storage::Row copy = lineitem->row(0);
  copy[*lineitem->schema().ColumnIndex("l_linenumber")] =
      storage::Value::Int(99);
  ASSERT_TRUE(lineitem->Insert(std::move(copy)).ok());

  auto refresh = quarry_->RefreshServing();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_EQ(quarry_->warehouse().current_generation(), 2u);
  EXPECT_EQ(ServedFingerprint(*quarry_),
            FreshDeployFingerprint(src_, {RevenueIr(), NetprofitIr()}));
}

TEST_F(QuarryTest, RefreshDropsTheTablesOfARemovedRequirement) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  ASSERT_TRUE(quarry_->AddRequirement(NetprofitIr()).ok());
  auto deployment = quarry_->DeployServing();
  ASSERT_TRUE(deployment.ok() && deployment->success);

  ASSERT_TRUE(quarry_->RemoveRequirement("ir_netprofit").ok());
  auto refresh = quarry_->RefreshServing();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_FALSE(quarry_->warehouse().Acquire()->db().HasTable(
      "fact_table_netprofit"));
  EXPECT_EQ(ServedFingerprint(*quarry_),
            FreshDeployFingerprint(src_, {RevenueIr()}));
}

// Golden value: one fixed design over the fixture's source must keep
// deploying the same warehouse, whatever the deployer does to the flow on
// its way to the executor. The constant is specific to gcc 12 / libstdc++:
// Value::Hash (and so Database::Fingerprint) goes through std::hash.
TEST_F(QuarryTest, GoldenDeployFingerprint) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  ASSERT_TRUE(quarry_->AddRequirement(NetprofitIr()).ok());
  auto deployment = quarry_->DeployServing();
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ASSERT_TRUE(deployment->success);
  EXPECT_EQ(ServedFingerprint(*quarry_), 13289266302668545119ull)
      << ServedFingerprint(*quarry_);
}

TEST_F(QuarryTest, ChangeRequirementReplacesDefinition) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  InformationRequirement changed = RevenueIr();
  changed.dimensions.pop_back();  // Part only
  ASSERT_TRUE(quarry_->ChangeRequirement(changed).ok());
  const md::Fact& fact = **quarry_->schema().GetFact("fact_table_revenue");
  EXPECT_EQ(fact.dimension_refs.size(), 1u);
}

// A change whose new definition fails to integrate keeps the old one: the
// requirement set and the unified xMD/xLM stay exactly as they were.
TEST(QuarryChangeTest, FailedChangeKeepsTheRequirement) {
  storage::Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.002, 77}).ok());
  auto quarry = Quarry::Create(ontology::BuildTpchOntology(),
                               ontology::BuildTpchMappings(), &src);
  ASSERT_TRUE(quarry.ok()) << quarry.status();
  req::WorkloadConfig config;
  config.num_requirements = 8;
  config.overlap = 0.5;
  config.seed = 99;
  const std::vector<InformationRequirement> pool =
      req::GenerateTpchWorkload(config);
  ASSERT_EQ(pool.size(), 8u);
  for (const InformationRequirement& ir : pool) {
    ASSERT_TRUE((*quarry)->AddRequirement(ir).ok()) << ir.id;
  }
  ASSERT_TRUE((*quarry)->RemoveRequirement("ir_wl_0").ok());
  ASSERT_TRUE((*quarry)->RemoveRequirement("ir_wl_1").ok());

  auto requirement_ids = [&] {
    std::vector<std::string> ids;
    for (const auto& [id, ir] : (*quarry)->requirements()) ids.push_back(id);
    return ids;
  };
  const std::vector<std::string> ids_before = requirement_ids();
  ASSERT_EQ(ids_before.size(), 6u);
  const std::string xmd_before = *(*quarry)->ExportSchema("xmd");
  const std::string xlm_before = *(*quarry)->ExportFlow("xlm");
  const uint64_t stored_before = (*quarry)->repository().store().Fingerprint();

  InformationRequirement changed = pool[7];
  ASSERT_EQ(changed.id, "ir_wl_7");
  changed.measures.front().expression = "Lineitem.l_quantity";
  auto outcome = (*quarry)->ChangeRequirement(changed);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsAlreadyExists()) << outcome.status();

  ASSERT_EQ(requirement_ids(), ids_before);
  EXPECT_EQ((*quarry)->requirements().at("ir_wl_7").measures.front().expression,
            pool[7].measures.front().expression);
  EXPECT_EQ(*(*quarry)->ExportSchema("xmd"), xmd_before);
  EXPECT_EQ(*(*quarry)->ExportFlow("xlm"), xlm_before);
  // The repository (stored xRQ, partial and unified xMD/xLM) is untouched.
  EXPECT_EQ((*quarry)->repository().store().Fingerprint(), stored_before);
}

TEST_F(QuarryTest, DuplicateRequirementRejected) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  EXPECT_TRUE(quarry_->AddRequirement(RevenueIr()).status().IsAlreadyExists());
}

TEST_F(QuarryTest, UnsatisfiableRequirementLeavesDesignUntouched) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  InformationRequirement bad;
  bad.id = "ir_bad";
  bad.name = "bad";
  bad.focus_concept = "Partsupp";
  bad.measures.push_back(
      {"cost", "Partsupp.ps_supplycost", md::AggFunc::kSum});
  bad.dimensions.push_back({"Customer.c_name"});
  EXPECT_TRUE(quarry_->AddRequirement(bad).status().IsUnsatisfiable());
  EXPECT_EQ(quarry_->requirements().size(), 1u);
  EXPECT_TRUE(quarry_->repository().Ids("xrq") ==
              std::vector<std::string>{"ir_revenue"});
}

TEST_F(QuarryTest, ExportersRenderSchemaAndFlow) {
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  auto sql = quarry_->ExportSchema("sql");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("CREATE TABLE fact_table_revenue"), std::string::npos);
  auto xmd = quarry_->ExportSchema("xmd");
  ASSERT_TRUE(xmd.ok());
  EXPECT_NE(xmd->find("<MDschema"), std::string::npos);
  auto pdi = quarry_->ExportFlow("pdi");
  ASSERT_TRUE(pdi.ok());
  EXPECT_NE(pdi->find("<transformation>"), std::string::npos);
  auto xlm = quarry_->ExportFlow("xlm");
  ASSERT_TRUE(xlm.ok());
  EXPECT_NE(xlm->find("<design>"), std::string::npos);
  EXPECT_TRUE(quarry_->ExportSchema("piglatin").status().IsNotFound());
}

TEST_F(QuarryTest, PluggableExporterExtendsTheMetadataLayer) {
  // Paper §2.5: the layer "offers plug-in capabilities for adding import
  // and export parsers". Register a toy Pig-Latin-ish exporter.
  ASSERT_TRUE(quarry_->repository()
                  .RegisterExporter(
                      "pig",
                      [](const xml::Element& doc) -> Result<std::string> {
                        return std::string("-- pig script for ") +
                               doc.AttrOr("name", doc.name());
                      })
                  .ok());
  ASSERT_TRUE(quarry_->AddRequirement(RevenueIr()).ok());
  auto pig = quarry_->ExportSchema("pig");
  ASSERT_TRUE(pig.ok());
  EXPECT_EQ(*pig, "-- pig script for unified");
  EXPECT_TRUE(quarry_->repository()
                  .RegisterExporter("pig", nullptr)
                  .IsAlreadyExists());
}

TEST_F(QuarryTest, ElicitorToDeploymentPath) {
  // The full paper demo: elicit -> build -> add -> deploy.
  auto facts = quarry_->elicitor().SuggestFacts();
  ASSERT_FALSE(facts.empty());
  std::string focus = facts[0].concept_id;
  auto measures = quarry_->elicitor().SuggestMeasures(focus);
  ASSERT_TRUE(measures.ok());
  ASSERT_FALSE(measures->empty());
  auto dims = quarry_->elicitor().SuggestDimensions(focus);
  ASSERT_TRUE(dims.ok());
  ASSERT_FALSE(dims->empty());
  ASSERT_FALSE(dims->front().descriptive_properties.empty());
  auto ir = quarry_->elicitor().BuildRequirement(
      "ir_suggested", "suggested", focus,
      {{"m", (*measures)[0].property_id, md::AggFunc::kSum}},
      {{dims->front().descriptive_properties[0]}}, {});
  ASSERT_TRUE(ir.ok()) << ir.status();
  ASSERT_TRUE(quarry_->AddRequirement(*ir).ok());
  auto deployment = quarry_->DeployServing();
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ASSERT_TRUE(deployment->success);
  EXPECT_TRUE(deployment->report.referential_integrity_ok);
}

}  // namespace
}  // namespace quarry::core
