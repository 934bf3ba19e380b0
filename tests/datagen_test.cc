#include "datagen/tpch.h"

#include <gtest/gtest.h>

#include <set>

#include "storage/database.h"

namespace quarry::datagen {
namespace {

using storage::Database;
using storage::Row;
using storage::Table;
using storage::Value;

class TpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.scale_factor = 0.002;
    config.seed = 7;
    ASSERT_TRUE(PopulateTpch(&db_, config).ok());
  }
  Database db_;
};

TEST_F(TpchTest, AllEightTablesCreated) {
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    EXPECT_TRUE(db_.HasTable(name)) << name;
  }
  EXPECT_EQ(db_.num_tables(), 8u);
}

TEST_F(TpchTest, FixedCardinalities) {
  EXPECT_EQ((*db_.GetTable("region"))->num_rows(), 5u);
  EXPECT_EQ((*db_.GetTable("nation"))->num_rows(), 25u);
}

TEST_F(TpchTest, ScaledCardinalitiesMatchExpectation) {
  TpchConfig config;
  config.scale_factor = 0.002;
  for (const char* name : {"supplier", "customer", "part", "partsupp",
                           "orders"}) {
    EXPECT_EQ(static_cast<int64_t>((*db_.GetTable(name))->num_rows()),
              ExpectedRows(name, config))
        << name;
  }
  // Lineitem is stochastic per order (1..7): check a sane envelope.
  int64_t orders = ExpectedRows("orders", config);
  auto lineitem = (*db_.GetTable("lineitem"))->num_rows();
  EXPECT_GE(static_cast<int64_t>(lineitem), orders);
  EXPECT_LE(static_cast<int64_t>(lineitem), orders * 7);
}

TEST_F(TpchTest, ReferentialIntegrityHolds) {
  EXPECT_TRUE(db_.CheckReferentialIntegrity().ok());
}

TEST_F(TpchTest, LineitemSupplierMatchesAPartsuppOffer) {
  const Table& lineitem = **db_.GetTable("lineitem");
  const Table& partsupp = **db_.GetTable("partsupp");
  std::set<std::pair<int64_t, int64_t>> offers;
  for (const Row& row : partsupp.rows()) {
    offers.emplace(row[0].as_int(), row[1].as_int());
  }
  for (const Row& row : lineitem.rows()) {
    EXPECT_TRUE(offers.count({row[2].as_int(), row[3].as_int()}) > 0)
        << "lineitem references (part,supplier) not offered in partsupp";
  }
}

TEST_F(TpchTest, DatesWithinTpchWindow) {
  const Table& orders = **db_.GetTable("orders");
  int32_t lo = storage::DaysFromCivil(1992, 1, 1);
  int32_t hi = storage::DaysFromCivil(1998, 12, 31);
  for (const Row& row : orders.rows()) {
    EXPECT_GE(row[4].as_date_days(), lo);
    EXPECT_LE(row[4].as_date_days(), hi);
  }
}

TEST(TpchDeterminismTest, SameSeedSameData) {
  TpchConfig config;
  config.scale_factor = 0.001;
  config.seed = 99;
  Database a, b;
  ASSERT_TRUE(PopulateTpch(&a, config).ok());
  ASSERT_TRUE(PopulateTpch(&b, config).ok());
  for (const std::string& name : a.TableNames()) {
    const Table& ta = **a.GetTable(name);
    const Table& tb = **b.GetTable(name);
    ASSERT_EQ(ta.num_rows(), tb.num_rows()) << name;
    const std::vector<Row> ra = ta.rows();
    const std::vector<Row> rb = tb.rows();
    for (size_t i = 0; i < ta.num_rows(); ++i) {
      for (size_t c = 0; c < ta.schema().num_columns(); ++c) {
        ASSERT_TRUE(ra[i][c].SameAs(rb[i][c]))
            << name << " row " << i << " col " << c;
      }
    }
  }
}

TEST(TpchDeterminismTest, DifferentSeedDifferentData) {
  TpchConfig c1{0.001, 1}, c2{0.001, 2};
  Database a, b;
  ASSERT_TRUE(PopulateTpch(&a, c1).ok());
  ASSERT_TRUE(PopulateTpch(&b, c2).ok());
  const Table& la = **a.GetTable("lineitem");
  const Table& lb = **b.GetTable("lineitem");
  bool any_diff = la.num_rows() != lb.num_rows();
  for (size_t i = 0; !any_diff && i < la.num_rows(); ++i) {
    if (!la.row(i)[5].SameAs(lb.row(i)[5])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TpchConfigTest, RejectsNonPositiveScale) {
  Database db;
  EXPECT_TRUE(PopulateTpch(&db, {0.0, 1}).IsInvalidArgument());
  EXPECT_TRUE(PopulateTpch(&db, {-1.0, 1}).IsInvalidArgument());
}

TEST(TpchConfigTest, RepopulationFails) {
  Database db;
  ASSERT_TRUE(PopulateTpch(&db, {0.001, 1}).ok());
  EXPECT_TRUE(PopulateTpch(&db, {0.001, 1}).IsAlreadyExists());
}

TEST(TpchConfigTest, ScaleGrowsCardinalities) {
  TpchConfig small{0.001, 1}, large{0.01, 1};
  EXPECT_LT(ExpectedRows("orders", small), ExpectedRows("orders", large));
  EXPECT_LT(ExpectedRows("part", small), ExpectedRows("part", large));
}

}  // namespace
}  // namespace quarry::datagen
