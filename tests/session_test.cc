#include "core/session.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "datagen/tpch.h"
#include "ontology/tpch_ontology.h"

namespace quarry::core {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::PopulateTpch(&src_, {0.005, 37}).ok());
    dir_ = std::filesystem::temp_directory_path() / "quarry_session_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Quarry> MakeQuarryWithRequirements() {
    auto quarry = Quarry::Create(ontology::BuildTpchOntology(),
                                 ontology::BuildTpchMappings(), &src_);
    EXPECT_TRUE(quarry.ok()) << quarry.status();
    EXPECT_TRUE((*quarry)
                    ->AddRequirementFromQuery(
                        "ANALYZE revenue ON Lineitem MEASURE revenue = "
                        "Lineitem.l_extendedprice * (1 - "
                        "Lineitem.l_discount) SUM "
                        "BY Part.p_name, Supplier.s_name")
                    .ok());
    EXPECT_TRUE((*quarry)
                    ->AddRequirementFromQuery(
                        "ANALYZE qty ON Lineitem MEASURE qty = "
                        "Lineitem.l_quantity SUM BY Nation.n_name")
                    .ok());
    return std::move(*quarry);
  }

  storage::Database src_;
  std::filesystem::path dir_;
};

TEST_F(SessionTest, SaveThenLoadRebuildsIdenticalDesign) {
  auto original = MakeQuarryWithRequirements();
  ASSERT_TRUE(SaveSession(*original, dir_).ok());

  auto restored = LoadSession(dir_, &src_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->requirements().size(), 2u);
  EXPECT_TRUE(xml::DeepEqual(*original->schema().ToXml(),
                             *(*restored)->schema().ToXml()));
  // The restored instance is fully operational.
  auto deployment = (*restored)->DeployServing();
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ASSERT_TRUE(deployment->success);
  EXPECT_TRUE(deployment->report.referential_integrity_ok);
}

TEST_F(SessionTest, LoadDetectsDivergingSourceData) {
  auto original = MakeQuarryWithRequirements();
  ASSERT_TRUE(SaveSession(*original, dir_).ok());
  // A fresh source with a different seed rebuilds the same *logical*
  // design (schemas don't depend on data), so loading still succeeds...
  storage::Database other_src;
  ASSERT_TRUE(datagen::PopulateTpch(&other_src, {0.005, 99}).ok());
  auto restored = LoadSession(dir_, &other_src);
  EXPECT_TRUE(restored.ok()) << restored.status();
}

TEST_F(SessionTest, LoadFailsOnMissingDirectoryOrMetadata) {
  EXPECT_TRUE(
      LoadSession("/nonexistent/quarry", &src_).status().IsNotFound());
  // Directory exists but holds no ontology.
  EXPECT_TRUE(LoadSession(dir_, &src_).status().IsNotFound());
}

TEST_F(SessionTest, SessionRoundtripAfterEvolution) {
  auto original = MakeQuarryWithRequirements();
  ASSERT_TRUE(original->RemoveRequirement("qty").ok());
  ASSERT_TRUE(original
                  ->AddRequirementFromQuery(
                      "ANALYZE tax ON Lineitem MEASURE avg_tax = "
                      "Lineitem.l_tax AVG BY Part.p_brand")
                  .ok());
  ASSERT_TRUE(SaveSession(*original, dir_).ok());
  auto restored = LoadSession(dir_, &src_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->requirements().size(), 2u);
  EXPECT_TRUE((*restored)->requirements().count("tax") > 0);
  EXPECT_FALSE((*restored)->requirements().count("qty") > 0);
  EXPECT_TRUE(xml::DeepEqual(*original->schema().ToXml(),
                             *(*restored)->schema().ToXml()));
}

TEST_F(SessionTest, DurableSessionSurvivesKillWithoutASave) {
  // A durable session WAL-logs every design step, so a kill after
  // EnableDurability loses nothing even though SaveSession never ran again.
  {
    auto original = MakeQuarryWithRequirements();
    ASSERT_TRUE(SaveSession(*original, dir_).ok());
    ASSERT_TRUE(original->EnableDurability(dir_.string()).ok());
    ASSERT_TRUE(original
                    ->AddRequirementFromQuery(
                        "ANALYZE tax ON Lineitem MEASURE avg_tax = "
                        "Lineitem.l_tax AVG BY Part.p_brand")
                    .ok());
  }  // no SaveSession: the "tax" artifacts exist only in the WAL

  docstore::RecoveryStats stats;
  auto restored = OpenDurableSession(dir_.string(), &src_, {}, &stats);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->requirements().size(), 3u);
  EXPECT_TRUE((*restored)->requirements().count("tax") > 0);
  EXPECT_TRUE(stats.manifest_found);
  EXPECT_GT(stats.wal_records_replayed, 0);
  EXPECT_EQ((*restored)->recovery_stats().wal_records_replayed,
            stats.wal_records_replayed);
  EXPECT_TRUE((*restored)->repository().store().durable());
}

}  // namespace
}  // namespace quarry::core
