#include "deployer/deployer.h"

#include <gtest/gtest.h>

#include "datagen/tpch.h"
#include "deployer/pdi_generator.h"
#include "deployer/sql_generator.h"
#include "integrator/design_integrator.h"
#include "interpreter/interpreter.h"
#include "ontology/tpch_ontology.h"
#include "storage/sql.h"

namespace quarry::deployer {
namespace {

using interpreter::Interpreter;
using req::InformationRequirement;

class DeployerTest : public ::testing::Test {
 protected:
  DeployerTest()
      : onto_(ontology::BuildTpchOntology()),
        mapping_(ontology::BuildTpchMappings()),
        interpreter_(&onto_, &mapping_) {
    EXPECT_TRUE(datagen::PopulateTpch(&src_, {0.005, 23}).ok());
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

  interpreter::PartialDesign Interpret(const InformationRequirement& ir) {
    auto design = interpreter_.Interpret(ir);
    EXPECT_TRUE(design.ok()) << design.status();
    return std::move(*design);
  }

  /// A transactional deployment into the empty `target`, expected to
  /// commit.
  DeploymentReport Deploy(const md::MdSchema& schema, const etl::Flow& flow,
                          storage::Database* target) {
    Deployer dep(&src_, target);
    auto outcome = dep.DeployTransactional(schema, flow, mapping_, {});
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->success)
        << (outcome->failure ? outcome->failure->cause.ToString() : "");
    return std::move(outcome->report);
  }

  ontology::Ontology onto_;
  ontology::SourceMapping mapping_;
  Interpreter interpreter_;
  storage::Database src_;
};

TEST_F(DeployerTest, GeneratedSqlMatchesPaperShape) {
  auto design = Interpret(RevenueIr());
  auto sql = GenerateSql(design.schema, mapping_, src_);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("CREATE DATABASE demo;"), std::string::npos);
  EXPECT_NE(sql->find("CREATE TABLE fact_table_revenue"), std::string::npos);
  EXPECT_NE(sql->find("CREATE TABLE dim_Part"), std::string::npos);
  EXPECT_NE(sql->find("CREATE TABLE dim_Supplier"), std::string::npos);
  EXPECT_NE(sql->find("revenue double precision"), std::string::npos);
  EXPECT_NE(sql->find("PRIMARY KEY( p_partkey, s_suppkey )"),
            std::string::npos);
  EXPECT_NE(sql->find("FOREIGN KEY( p_partkey ) REFERENCES dim_Part"),
            std::string::npos);
}

TEST_F(DeployerTest, GeneratedSqlIsExecutable) {
  auto design = Interpret(RevenueIr());
  auto sql = GenerateSql(design.schema, mapping_, src_);
  ASSERT_TRUE(sql.ok());
  storage::Database target;
  auto report = storage::ExecuteSql(&target, *sql);
  ASSERT_TRUE(report.ok()) << report.status() << "\n" << *sql;
  EXPECT_EQ(report->tables_created, 3);
  EXPECT_EQ(target.name(), "demo");
  // Fact schema carries the FK and the composite PK.
  const storage::TableSchema& fact =
      (*target.GetTable("fact_table_revenue"))->schema();
  EXPECT_EQ(fact.primary_key().size(), 2u);
  EXPECT_EQ(fact.foreign_keys().size(), 2u);
}

TEST_F(DeployerTest, PdiExportMatchesPaperShape) {
  auto design = Interpret(RevenueIr());
  std::string ktr = GeneratePdiText(design.flow);
  EXPECT_NE(ktr.find("<transformation>"), std::string::npos);
  EXPECT_NE(ktr.find("<database>demo</database>"), std::string::npos);
  EXPECT_NE(ktr.find("<hop>"), std::string::npos);
  EXPECT_NE(ktr.find("<from>DATASTORE_lineitem</from>"), std::string::npos);
  EXPECT_NE(ktr.find("<type>TableInput</type>"), std::string::npos);
  EXPECT_NE(ktr.find("<type>TableOutput</type>"), std::string::npos);
  EXPECT_NE(ktr.find("<enabled>Y</enabled>"), std::string::npos);
  // It parses back as XML.
  EXPECT_TRUE(xml::Parse(ktr).ok());
}

TEST_F(DeployerTest, EndToEndDeploymentPopulatesWarehouse) {
  auto design = Interpret(RevenueIr());
  storage::Database target;
  DeploymentReport report = Deploy(design.schema, design.flow, &target);
  EXPECT_EQ(report.tables_created, 3);
  EXPECT_TRUE(report.referential_integrity_ok);
  EXPECT_GT(report.etl.loaded.at("fact_table_revenue"), 0);
  EXPECT_GT(report.etl.loaded.at("dim_Part"), 0);
  // The fact PK (grain) held during the load and FK targets exist.
  EXPECT_TRUE(target.CheckReferentialIntegrity().ok());
}

TEST_F(DeployerTest, DeployTransactionalRejectsANonEmptyTarget) {
  auto design = Interpret(RevenueIr());
  storage::Database target;
  storage::TableSchema schema("existing");
  ASSERT_TRUE(
      schema.AddColumn({"id", storage::DataType::kInt64, false}).ok());
  ASSERT_TRUE(target.CreateTable(std::move(schema)).ok());
  const uint64_t fingerprint = target.Fingerprint();
  Deployer dep(&src_, &target);
  auto outcome =
      dep.DeployTransactional(design.schema, design.flow, mapping_, {});
  EXPECT_TRUE(outcome.status().IsInvalidArgument()) << outcome.status();
  EXPECT_EQ(target.Fingerprint(), fingerprint);
}

TEST_F(DeployerTest, MergedFactFromTwoRequirementsFillsBothMeasures) {
  // Two IRs sharing grain -> one fact table with two measure columns, each
  // filled by its own loader (merge semantics).
  InformationRequirement r1 = RevenueIr();
  InformationRequirement r2 = RevenueIr();
  r2.id = "ir_discount";
  r2.measures[0] = {"avg_discount", "Lineitem.l_discount",
                    md::AggFunc::kAvg};

  etl::TableColumns columns;
  std::map<std::string, int64_t> rows;
  for (const std::string& name : src_.TableNames()) {
    std::vector<std::string> cols;
    for (const auto& c : (*src_.GetTable(name))->schema().columns()) {
      cols.push_back(c.name);
    }
    columns[name] = cols;
    rows[name] = static_cast<int64_t>((*src_.GetTable(name))->num_rows());
  }
  integrator::DesignIntegrator integrator(&onto_, columns, rows);
  ASSERT_TRUE(integrator.AddRequirement(r1, Interpret(r1)).ok());
  ASSERT_TRUE(integrator.AddRequirement(r2, Interpret(r2)).ok());

  storage::Database target;
  Deploy(integrator.schema(), integrator.flow(), &target);
  ASSERT_TRUE(target.HasTable("fact_table_revenue"));
  const storage::Table& fact = **target.GetTable("fact_table_revenue");
  auto rev = fact.schema().ColumnIndex("revenue");
  auto disc = fact.schema().ColumnIndex("avg_discount");
  ASSERT_TRUE(rev.has_value());
  ASSERT_TRUE(disc.has_value());
  ASSERT_GT(fact.num_rows(), 0u);
  for (const storage::Row& row : fact.rows()) {
    EXPECT_FALSE(row[*rev].is_null());
    EXPECT_FALSE(row[*disc].is_null());
  }
}

TEST_F(DeployerTest, SqlGenerationFailsOnUnmappedConcept) {
  auto design = Interpret(RevenueIr());
  ontology::SourceMapping empty;
  EXPECT_TRUE(
      GenerateSql(design.schema, empty, src_).status().IsNotFound());
}

}  // namespace
}  // namespace quarry::deployer
