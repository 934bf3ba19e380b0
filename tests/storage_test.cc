#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/prng.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/schema.h"
#include "storage/sql.h"
#include "storage/table.h"
#include "storage/value.h"

namespace quarry::storage {
namespace {

TEST(ValueTest, NullBehaviour) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.SqlEquals(Value::Null()));
  EXPECT_TRUE(v.SameAs(Value::Null()));
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_FALSE(v.type().ok());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(1).Compare(Value::Double(1.0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int(2)), 0);
  EXPECT_TRUE(Value::Int(3).SqlEquals(Value::Double(3.0)));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, DateRoundtrip) {
  Value d = Value::DateYmd(1995, 3, 15);
  EXPECT_TRUE(d.is_date());
  EXPECT_EQ(d.ToString(), "1995-03-15");
  auto parsed = Value::Parse("1995-03-15", DataType::kDate);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(d.SameAs(*parsed));
}

TEST(ValueTest, CivilDateMath) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
  int y, m, d;
  CivilFromDays(DaysFromCivil(2000, 2, 29), &y, &m, &d);
  EXPECT_EQ(y, 2000);
  EXPECT_EQ(m, 2);
  EXPECT_EQ(d, 29);
}

TEST(ValueTest, ParseByType) {
  EXPECT_EQ(Value::Parse("42", DataType::kInt64)->as_int(), 42);
  EXPECT_DOUBLE_EQ(Value::Parse("2.5", DataType::kDouble)->as_double(), 2.5);
  EXPECT_TRUE(Value::Parse("true", DataType::kBool)->as_bool());
  EXPECT_EQ(Value::Parse("hi", DataType::kString)->as_string(), "hi");
  EXPECT_FALSE(Value::Parse("x", DataType::kInt64).ok());
  EXPECT_FALSE(Value::Parse("2020-13-01", DataType::kDate).ok());
}

TEST(ValueTest, CastBetweenTypes) {
  EXPECT_DOUBLE_EQ(Value::Int(4).CastTo(DataType::kDouble)->as_double(), 4.0);
  EXPECT_EQ(Value::Double(4.9).CastTo(DataType::kInt64)->as_int(), 4);
  EXPECT_EQ(Value::Int(4).CastTo(DataType::kString)->as_string(), "4");
  EXPECT_TRUE(Value::Null().CastTo(DataType::kInt64)->is_null());
  EXPECT_FALSE(Value::DateYmd(2020, 1, 1).CastTo(DataType::kDouble).ok());
}

TEST(ValueTest, CastDoubleToIntRejectsWhatInt64CannotHold) {
  // An explicit cast truncates (above), but NaN, infinities and doubles
  // outside int64 have no int64 to truncate to: converting them would be
  // undefined behaviour, so the cast fails instead.
  for (double d : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300, 0x1p63}) {
    EXPECT_TRUE(Value::Double(d).CastTo(DataType::kInt64).status()
                    .IsInvalidArgument())
        << d;
  }
  EXPECT_EQ(Value::Double(-0x1p63).CastTo(DataType::kInt64)->as_int(),
            INT64_MIN);
}

TableSchema MakePartSchema() {
  TableSchema schema("part");
  EXPECT_TRUE(schema.AddColumn({"p_partkey", DataType::kInt64, false}).ok());
  EXPECT_TRUE(schema.AddColumn({"p_name", DataType::kString, true}).ok());
  EXPECT_TRUE(
      schema.AddColumn({"p_retailprice", DataType::kDouble, true}).ok());
  EXPECT_TRUE(schema.SetPrimaryKey({"p_partkey"}).ok());
  return schema;
}

TEST(SchemaTest, DuplicateColumnRejected) {
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"a", DataType::kInt64, true}).ok());
  EXPECT_TRUE(schema.AddColumn({"a", DataType::kInt64, true})
                  .IsAlreadyExists());
}

TEST(SchemaTest, PrimaryKeyMustExist) {
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"a", DataType::kInt64, true}).ok());
  EXPECT_TRUE(schema.SetPrimaryKey({"zzz"}).IsNotFound());
}

TEST(SchemaTest, ForeignKeyArityChecked) {
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"a", DataType::kInt64, true}).ok());
  ForeignKey fk{{"a"}, "other", {"x", "y"}};
  EXPECT_TRUE(schema.AddForeignKey(fk).IsInvalidArgument());
}

TEST(TableTest, InsertValidatesArityAndTypes) {
  Table t(MakePartSchema());
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::String("bolt"),
                        Value::Double(9.99)})
                  .ok());
  EXPECT_TRUE(t.Insert({Value::Int(2)}).IsInvalidArgument());
  EXPECT_TRUE(t.Insert({Value::String("x"), Value::String("y"),
                        Value::Double(1)})
                  .IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, NotNullEnforced) {
  Table t(MakePartSchema());
  EXPECT_TRUE(
      t.Insert({Value::Null(), Value::String("x"), Value::Double(1)})
          .IsInvalidArgument());
}

TEST(TableTest, PrimaryKeyUniquenessEnforced) {
  Table t(MakePartSchema());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Double(1)}).ok());
  EXPECT_TRUE(
      t.Insert({Value::Int(1), Value::String("b"), Value::Double(2)})
          .IsAlreadyExists());
}

TEST(TableTest, NumericWideningOnInsert) {
  Table t(MakePartSchema());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Int(5)}).ok());
  EXPECT_TRUE(t.rows()[0][2].is_double());
  EXPECT_DOUBLE_EQ(t.rows()[0][2].as_double(), 5.0);
}

TEST(TableTest, DoubleNarrowsIntoIntColumnOnlyWhenExact) {
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"id", DataType::kInt64, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"qty", DataType::kInt64, true}).ok());
  Table t(std::move(schema));
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Double(3.0)}).ok());
  EXPECT_TRUE(t.row(0)[1].is_int());
  EXPECT_EQ(t.row(0)[1].as_int(), 3);
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Double(-0x1p63)}).ok());
  EXPECT_EQ(t.row(1)[1].as_int(), INT64_MIN);
  // A fraction, or a double beyond int64, would be truncated or undefined.
  for (double d : {4.9, -0.5, 1e300, 0x1p63, std::nan(""), HUGE_VAL}) {
    Status status = t.Insert({Value::Int(3), Value::Double(d)});
    EXPECT_TRUE(status.IsInvalidArgument()) << d;
    EXPECT_NE(status.message().find("type mismatch in column 'qty'"),
              std::string::npos)
        << status;
  }
  EXPECT_EQ(t.num_rows(), 2u);
  // SetCell follows the same rule.
  ASSERT_TRUE(t.SetCell(0, 1, Value::Double(6.0)).ok());
  EXPECT_EQ(t.row(0)[1].as_int(), 6);
  EXPECT_TRUE(t.SetCell(0, 1, Value::Double(4.9)).IsInvalidArgument());
  EXPECT_TRUE(t.SetCell(0, 1, Value::Double(1e300)).IsInvalidArgument());
  EXPECT_EQ(t.row(0)[1].as_int(), 6);
}

TEST(TableTest, IndexLookup) {
  Table t(MakePartSchema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::String(std::string("p").append(std::to_string(i % 10))),
                          Value::Double(i * 1.5)})
                    .ok());
  }
  ASSERT_TRUE(t.CreateIndex({"p_name"}).ok());
  EXPECT_TRUE(t.HasIndex({"p_name"}));
  auto hits = t.IndexLookup({"p_name"}, {Value::String("p3")});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 10u);
  auto missing = t.IndexLookup({"p_name"}, {Value::String("nope")});
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
  EXPECT_TRUE(t.IndexLookup({"p_retailprice"}, {Value::Double(1.5)})
                  .status()
                  .IsNotFound());
}

TEST(TableTest, IndexBuiltAfterInsertSeesExistingRows) {
  Table t(MakePartSchema());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Double(1)}).ok());
  ASSERT_TRUE(t.CreateIndex({"p_partkey"}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(2), Value::String("b"), Value::Double(2)}).ok());
  EXPECT_EQ(t.IndexLookup({"p_partkey"}, {Value::Int(1)})->size(), 1u);
  EXPECT_EQ(t.IndexLookup({"p_partkey"}, {Value::Int(2)})->size(), 1u);
}

TEST(TableTest, ScanEquals) {
  Table t(MakePartSchema());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Double(1)}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(2), Value::String("a"), Value::Double(2)}).ok());
  EXPECT_EQ(t.ScanEquals("p_name", Value::String("a")).size(), 2u);
  EXPECT_TRUE(t.ScanEquals("bogus", Value::Int(0)).empty());
}

TEST(TableTest, SetCellUpdatesInPlace) {
  Table t(MakePartSchema());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Null()}).ok());
  ASSERT_TRUE(t.SetCell(0, 2, Value::Double(3.5)).ok());
  EXPECT_DOUBLE_EQ(t.rows()[0][2].as_double(), 3.5);
  // Int widens to the double column.
  ASSERT_TRUE(t.SetCell(0, 2, Value::Int(4)).ok());
  EXPECT_DOUBLE_EQ(t.rows()[0][2].as_double(), 4.0);
  // Primary-key column refuses updates; so do bad indexes and bad types.
  EXPECT_TRUE(t.SetCell(0, 0, Value::Int(9)).IsInvalidArgument());
  EXPECT_TRUE(t.SetCell(5, 2, Value::Double(1)).IsInvalidArgument());
  EXPECT_TRUE(t.SetCell(0, 9, Value::Double(1)).IsInvalidArgument());
  EXPECT_TRUE(t.SetCell(0, 2, Value::String("x")).IsInvalidArgument());
  // Indexed columns refuse updates too.
  ASSERT_TRUE(t.CreateIndex({"p_name"}).ok());
  EXPECT_TRUE(t.SetCell(0, 1, Value::String("b")).IsInvalidArgument());
}

TEST(TableTest, AddColumnExtendsExistingRowsWithNull) {
  Table t(MakePartSchema());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Double(1)}).ok());
  ASSERT_TRUE(t.AddColumn({"p_comment", DataType::kString, true}).ok());
  EXPECT_EQ(t.schema().num_columns(), 4u);
  EXPECT_TRUE(t.rows()[0][3].is_null());
  // New inserts must carry the new column.
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::String("b"), Value::Double(2),
                        Value::String("note")})
                  .ok());
  // NOT NULL columns cannot be added to a table (existing rows violate).
  EXPECT_TRUE(
      t.AddColumn({"p_extra", DataType::kInt64, false}).IsInvalidArgument());
  EXPECT_TRUE(
      t.AddColumn({"p_comment", DataType::kString, true}).IsAlreadyExists());
}

TEST(TableTest, TruncateClearsRowsAndIndexes) {
  Table t(MakePartSchema());
  ASSERT_TRUE(t.CreateIndex({"p_name"}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Double(1)}).ok());
  t.Truncate();
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_TRUE(t.IndexLookup({"p_name"}, {Value::String("a")})->empty());
  // PK slot is free again after truncate.
  EXPECT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Double(1)}).ok());
}

TEST(TableTest, CloneEnforcesPrimaryKeyIndependently) {
  Table t(MakePartSchema());
  ASSERT_TRUE(t.CreateIndex({"p_name"}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Double(1)}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(2), Value::String("b"), Value::Double(2)}).ok());
  std::unique_ptr<Table> clone = t.Clone();
  const uint64_t original = t.Fingerprint();
  EXPECT_EQ(clone->Fingerprint(), original);

  // The same new key lands in each copy once, and only once.
  ASSERT_TRUE(clone->Insert({Value::Int(3), Value::String("a"),
                             Value::Double(3)})
                  .ok());
  EXPECT_TRUE(clone->Insert({Value::Int(3), Value::String("c"),
                             Value::Double(4)})
                  .IsAlreadyExists());
  EXPECT_TRUE(clone->Insert({Value::Int(1), Value::String("c"),
                             Value::Double(4)})
                  .IsAlreadyExists());
  EXPECT_EQ(t.Fingerprint(), original);
  EXPECT_EQ(t.IndexLookup({"p_name"}, {Value::String("a")})->size(), 1u);
  EXPECT_EQ(clone->IndexLookup({"p_name"}, {Value::String("a")})->size(),
            2u);
  ASSERT_TRUE(
      t.Insert({Value::Int(3), Value::String("z"), Value::Double(9)}).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(clone->num_rows(), 3u);
  EXPECT_TRUE(clone->IndexLookup({"p_name"}, {Value::String("z")})->empty());
}

TEST(TableTest, PrimaryKeyComparesCoercedValues) {
  // Keys see the values after INT/DOUBLE coercion: 1 and 1.0 collide in
  // either column type, and an int beyond 2^53 collides with the double
  // it was stored as.
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"i", DataType::kInt64, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"d", DataType::kDouble, false}).ok());
  ASSERT_TRUE(schema.SetPrimaryKey({"i", "d"}).ok());
  Table t(std::move(schema));
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Int(1)}).ok());
  EXPECT_TRUE(t.rows()[0][1].is_double());
  EXPECT_TRUE(t.Insert({Value::Double(1.0), Value::Double(1.0)})
                  .IsAlreadyExists());
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Double(-0.0)}).ok());
  EXPECT_TRUE(
      t.Insert({Value::Double(1.0), Value::Int(0)}).IsAlreadyExists());
  const int64_t two53 = int64_t{1} << 53;
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Int(two53 + 1)}).ok());
  EXPECT_TRUE(t.Insert({Value::Int(2),
                        Value::Double(static_cast<double>(two53))})
                  .IsAlreadyExists());
  EXPECT_TRUE(t.Insert({Value::Int(two53 + 1), Value::Int(2)}).ok());
  EXPECT_TRUE(t.Insert({Value::Int(two53), Value::Int(2)}).ok());
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST(TableTest, TruncateThenReinsertRebuildsKeys) {
  Table t(MakePartSchema());
  ASSERT_TRUE(t.CreateIndex({"p_name"}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::String("a"),
                          Value::Double(i)})
                    .ok());
  }
  t.Truncate();
  // The same keys load again, in a new order; duplicates are still caught
  // and the index points at the new positions.
  for (int i : {2, 0, 1}) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::String(i == 1 ? "b" : "a"),
                          Value::Double(i)})
                    .ok());
  }
  EXPECT_TRUE(
      t.Insert({Value::Int(0), Value::String("c"), Value::Double(0)})
          .IsAlreadyExists());
  EXPECT_EQ(*t.IndexLookup({"p_name"}, {Value::String("a")}),
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(*t.IndexLookup({"p_name"}, {Value::String("b")}),
            (std::vector<size_t>{2}));
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(TableTest, IndexLookupFollowsTheKeyRule) {
  Table t(MakePartSchema());
  ASSERT_TRUE(t.CreateIndex({"p_retailprice"}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(1), Value::String("a"), Value::Double(1)}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(2), Value::String("b"), Value::Null()}).ok());
  ASSERT_TRUE(
      t.Insert({Value::Int(3), Value::String("c"), Value::Double(-0.0)})
          .ok());
  EXPECT_EQ(*t.IndexLookup({"p_retailprice"}, {Value::Int(1)}),
            (std::vector<size_t>{0}));
  EXPECT_EQ(*t.IndexLookup({"p_retailprice"}, {Value::Null()}),
            (std::vector<size_t>{1}));
  EXPECT_EQ(*t.IndexLookup({"p_retailprice"}, {Value::Double(0.0)}),
            (std::vector<size_t>{2}));
  EXPECT_TRUE(t.IndexLookup({"p_retailprice"}, {Value::Double(1.5)})
                  ->empty());
}

// --- Columnar layout (storage/table.h) --------------------------------------

/// (id INT PK, v DOUBLE, s STRING) with `rows` rows, loaded by InsertAll.
Table LayoutTable(int64_t rows) {
  TableSchema schema("layout");
  EXPECT_TRUE(schema.AddColumn({"id", DataType::kInt64, false}).ok());
  EXPECT_TRUE(schema.AddColumn({"v", DataType::kDouble, true}).ok());
  EXPECT_TRUE(schema.AddColumn({"s", DataType::kString, true}).ok());
  EXPECT_TRUE(schema.SetPrimaryKey({"id"}).ok());
  Table t(std::move(schema));
  std::vector<Row> batch;
  for (int64_t i = 0; i < rows; ++i) {
    batch.push_back({Value::Int(i),
                     i % 3 == 0 ? Value::Null() : Value::Int(i),
                     Value::String("row " + std::to_string(i))});
  }
  EXPECT_TRUE(t.InsertAll(std::move(batch)).ok());
  return t;
}

std::vector<const ValueSegment*> SegmentsOf(const std::vector<Chunk>& chunks) {
  std::vector<const ValueSegment*> out;
  for (const Chunk& chunk : chunks) {
    for (const Chunk::SegmentPtr& seg : chunk.segments()) {
      out.push_back(seg.get());
    }
  }
  return out;
}

TEST(TableLayoutTest, ScanSharesStoredChunksWhole) {
  Table t = LayoutTable(2500);
  const std::vector<Chunk> a = t.ScanChunks(Table::kChunkRows);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].num_rows(), 1024u);
  EXPECT_EQ(a[2].num_rows(), 452u);
  for (const Chunk& chunk : a) {
    EXPECT_FALSE(chunk.has_selection());
    // Stored in the declared types, never kMixed: the INT 1 in the DOUBLE
    // column reads back as 1.0.
    EXPECT_EQ(chunk.segment(0).rep(), ValueSegment::Rep::kInt64);
    EXPECT_EQ(chunk.segment(1).rep(), ValueSegment::Rep::kDouble);
    EXPECT_EQ(chunk.segment(2).rep(), ValueSegment::Rep::kString);
  }
  EXPECT_TRUE(t.row(1)[1].is_double());
  // No value is copied: two scans, and a scan of any larger size, hand
  // out the same segments.
  EXPECT_EQ(SegmentsOf(a), SegmentsOf(t.ScanChunks(Table::kChunkRows)));
  EXPECT_EQ(SegmentsOf(a), SegmentsOf(t.ScanChunks(1 << 20)));
  // Below the stored size the scan copies, cut at multiples of the size.
  const std::vector<Chunk> small = t.ScanChunks(7);
  ASSERT_EQ(small.size(), 358u);  // 357 * 7 + 1
  std::vector<Row> rows;
  for (const Chunk& chunk : small) {
    EXPECT_LE(chunk.num_rows(), 7u);
    chunk.AppendRowsTo(&rows);
  }
  ASSERT_EQ(rows.size(), t.num_rows());
  for (size_t r = 0; r < rows.size(); r += 97) {
    const Row want = t.row(r);
    for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(rows[r][c].SameAs(want[c]));
  }
}

TEST(TableLayoutTest, SmallAppendsNeverFragment) {
  Table t = LayoutTable(0);
  for (int64_t batch = 0; batch < 60; ++batch) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < 100; ++i) {
      rows.push_back({Value::Int(batch * 100 + i), Value::Double(1.5),
                      Value::Null()});
    }
    ASSERT_TRUE(t.InsertAll(std::move(rows)).ok());
  }
  const std::vector<Chunk> chunks = t.ScanChunks(Table::kChunkRows);
  ASSERT_EQ(chunks.size(), 6u);  // 5 * 1024 + 880
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].num_rows(), Table::kChunkRows);
  }
  EXPECT_EQ(chunks.back().num_rows(), 880u);
  EXPECT_EQ(t.row(5999)[0].as_int(), 5999);
}

TEST(TableLayoutTest, CloneSharesSealedChunksAndCopiesTheRest) {
  Table t = LayoutTable(2048);
  const uint64_t fp = t.Fingerprint();
  std::unique_ptr<Table> clone = t.Clone();
  EXPECT_EQ(SegmentsOf(t.ScanChunks(Table::kChunkRows)),
            SegmentsOf(clone->ScanChunks(Table::kChunkRows)));
  EXPECT_EQ(clone->Fingerprint(), fp);
  // The clone's appends and key set are its own.
  ASSERT_TRUE(clone
                  ->Insert({Value::Int(5000), Value::Double(2),
                            Value::String("new")})
                  .ok());
  EXPECT_TRUE(t.Insert({Value::Int(5000), Value::Null(), Value::Null()}).ok());
  EXPECT_TRUE(clone->Insert({Value::Int(5000), Value::Null(), Value::Null()})
                  .IsAlreadyExists());
  EXPECT_EQ(clone->num_rows(), 2049u);
  // Summed with `counted`, a clone adds only what it does not share: its
  // pending rows and its copy of the key structures.
  Table base = LayoutTable(2048);
  std::unique_ptr<Table> copy = base.Clone();
  ASSERT_TRUE(copy->Insert({Value::Int(-1), Value::Null(), Value::Null()})
                  .ok());
  size_t shared = 0;
  for (const ValueSegment* seg :
       SegmentsOf(base.ScanChunks(Table::kChunkRows))) {
    shared += seg->MemoryBytes();
  }
  EXPECT_GT(shared, 2048u * (8 + 8 + 32));
  std::unordered_set<const ValueSegment*> counted;
  EXPECT_EQ(base.MemoryBytes(&counted), base.MemoryBytes());
  EXPECT_EQ(copy->MemoryBytes(&counted), copy->MemoryBytes() - shared);
}

TEST(TableLayoutTest, ChangesNeverWriteIntoASharedSegment) {
  Table t = LayoutTable(1500);
  const std::vector<Chunk> before = t.ScanChunks(Table::kChunkRows);
  const uint64_t fp = t.Fingerprint();
  std::unique_ptr<Table> clone = t.Clone();
  ASSERT_TRUE(t.SetCell(3, 1, Value::Double(-1)).ok());     // sealed chunk
  ASSERT_TRUE(t.SetCell(1200, 1, Value::Double(-2)).ok());  // short chunk
  ASSERT_TRUE(t.AddColumn({"extra", DataType::kDate, true}).ok());
  EXPECT_DOUBLE_EQ(t.row(3)[1].as_double(), -1);
  EXPECT_DOUBLE_EQ(t.row(1200)[1].as_double(), -2);
  EXPECT_TRUE(t.row(1499)[3].is_null());
  // The earlier scan and the clone still see the old cells.
  EXPECT_TRUE(before[0].ValueAt(1, 3).is_null());
  EXPECT_TRUE(before[1].ValueAt(1, 1200 - 1024).is_null());
  EXPECT_EQ(before[0].num_columns(), 3u);
  EXPECT_EQ(clone->Fingerprint(), fp);
  EXPECT_NE(t.Fingerprint(), fp);
  // Only the touched (chunk, column) segments were replaced.
  const std::vector<Chunk> after = t.ScanChunks(Table::kChunkRows);
  EXPECT_NE(after[0].segment_ptr(1), before[0].segment_ptr(1));
  EXPECT_EQ(after[0].segment_ptr(0), before[0].segment_ptr(0));
  EXPECT_EQ(after[0].segment_ptr(2), before[0].segment_ptr(2));
}

TEST(TableLayoutTest, WriterMergesCopyOnWriteAndStopsAtTheFailingRow) {
  Table t = LayoutTable(2000);
  std::unique_ptr<Table> snapshot = t.Clone();
  const std::vector<Chunk> before = t.ScanChunks(Table::kChunkRows);
  // Input (id, v): a merge into row 3 (v NULL), a new row, a row whose v
  // the DOUBLE column cannot hold, and a row after it.
  const std::vector<Row> input = {{Value::Int(3), Value::Double(7.5)},
                                  {Value::Int(5000), Value::Int(1)},
                                  {Value::Int(6000), Value::String("x")},
                                  {Value::Int(7000), Value::Double(1)}};
  const Chunk chunk = MakeChunk(input, 2, 0, input.size());
  ASSERT_EQ(chunk.segment(1).rep(), ValueSegment::Rep::kMixed);
  int64_t written = 0;
  Status status;
  {
    TableWriter writer(&t, {0, 1, -1}, {0});
    status = writer.Append(chunk, &written);
  }
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("type mismatch in column 'v'"),
            std::string::npos)
      << status;
  // The rows before the failing one landed; the rest did not.
  EXPECT_EQ(written, 1);
  ASSERT_EQ(t.num_rows(), 2001u);
  EXPECT_EQ(t.row(2000)[0].as_int(), 5000);
  EXPECT_TRUE(t.row(2000)[1].is_double());
  EXPECT_DOUBLE_EQ(t.row(3)[1].as_double(), 7.5);
  // The merge wrote into a copy: the clone and the earlier scan keep NULL.
  EXPECT_TRUE(snapshot->row(3)[1].is_null());
  EXPECT_TRUE(before[0].ValueAt(1, 3).is_null());
  // The failing row's key left the primary-key set with it.
  EXPECT_TRUE(t.Insert({Value::Int(6000), Value::Null(), Value::Null()}).ok());
  EXPECT_TRUE(t.Insert({Value::Int(5000), Value::Null(), Value::Null()})
                  .IsAlreadyExists());
}

TEST(DatabaseTest, CreateGetDrop) {
  Database db("demo");
  ASSERT_TRUE(db.CreateTable(MakePartSchema()).ok());
  EXPECT_TRUE(db.HasTable("part"));
  EXPECT_TRUE(db.CreateTable(MakePartSchema()).status().IsAlreadyExists());
  EXPECT_TRUE(db.GetTable("part").ok());
  EXPECT_TRUE(db.GetTable("nope").status().IsNotFound());
  EXPECT_TRUE(db.DropTable("part").ok());
  EXPECT_FALSE(db.HasTable("part"));
  EXPECT_TRUE(db.DropTable("part").IsNotFound());
}

TEST(DatabaseTest, ForeignKeyRequiresReferencedTable) {
  Database db;
  TableSchema orders("orders");
  ASSERT_TRUE(orders.AddColumn({"o_id", DataType::kInt64, false}).ok());
  ASSERT_TRUE(orders.AddColumn({"o_custkey", DataType::kInt64, true}).ok());
  ASSERT_TRUE(
      orders.AddForeignKey({{"o_custkey"}, "customer", {"c_id"}}).ok());
  EXPECT_TRUE(db.CreateTable(orders).status().IsNotFound());
}

TEST(DatabaseTest, ReferentialIntegrityCheck) {
  Database db;
  TableSchema customer("customer");
  ASSERT_TRUE(customer.AddColumn({"c_id", DataType::kInt64, false}).ok());
  ASSERT_TRUE(customer.SetPrimaryKey({"c_id"}).ok());
  auto ct = db.CreateTable(customer);
  ASSERT_TRUE(ct.ok());
  ASSERT_TRUE((*ct)->Insert({Value::Int(1)}).ok());

  TableSchema orders("orders");
  ASSERT_TRUE(orders.AddColumn({"o_id", DataType::kInt64, false}).ok());
  ASSERT_TRUE(orders.AddColumn({"o_custkey", DataType::kInt64, true}).ok());
  ASSERT_TRUE(
      orders.AddForeignKey({{"o_custkey"}, "customer", {"c_id"}}).ok());
  auto ot = db.CreateTable(orders);
  ASSERT_TRUE(ot.ok());
  ASSERT_TRUE((*ot)->Insert({Value::Int(10), Value::Int(1)}).ok());
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok());

  // NULL FK is allowed.
  ASSERT_TRUE((*ot)->Insert({Value::Int(11), Value::Null()}).ok());
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok());

  // Dangling FK detected.
  ASSERT_TRUE((*ot)->Insert({Value::Int(12), Value::Int(99)}).ok());
  EXPECT_TRUE(db.CheckReferentialIntegrity().IsValidationError());
}

TEST(DatabaseTest, ReferentialIntegrityFollowsTheKeyRule) {
  // An INT foreign key into a DOUBLE key column: 1 finds 1.0 and 0 finds
  // -0.0, but 2^53 + 1 does not find the 2^53 it rounds to.
  Database db;
  TableSchema dim("dim");
  ASSERT_TRUE(dim.AddColumn({"d_key", DataType::kDouble, false}).ok());
  Table* d = *db.CreateTable(dim);
  const int64_t two53 = int64_t{1} << 53;
  for (double key : {1.0, -0.0, static_cast<double>(two53)}) {
    ASSERT_TRUE(d->Insert({Value::Double(key)}).ok());
  }
  TableSchema fact("fact");
  ASSERT_TRUE(fact.AddColumn({"f_key", DataType::kInt64, true}).ok());
  ASSERT_TRUE(fact.AddForeignKey({{"f_key"}, "dim", {"d_key"}}).ok());
  Table* f = *db.CreateTable(fact);
  for (int64_t key : {int64_t{1}, int64_t{0}, two53}) {
    ASSERT_TRUE(f->Insert({Value::Int(key)}).ok());
  }
  ASSERT_TRUE(f->Insert({Value::Null()}).ok());
  EXPECT_TRUE(db.CheckReferentialIntegrity().ok());
  ASSERT_TRUE(f->Insert({Value::Int(two53 + 1)}).ok());
  Status dangling = db.CheckReferentialIntegrity();
  EXPECT_TRUE(dangling.IsValidationError());
  EXPECT_NE(dangling.ToString().find(std::to_string(two53 + 1)),
            std::string::npos)
      << dangling;
}

// --- SQL front end -------------------------------------------------------

TEST(SqlTest, CreateTableLikePaperFigure3) {
  Database db;
  const char* ddl = R"sql(
CREATE DATABASE demo;
CREATE TABLE fact_table_revenue (
  Partsupp_PartsuppID BIGINT NOT NULL,
  Orders_OrdersID BIGINT NOT NULL,
  revenue double precision,
  PRIMARY KEY( Partsupp_PartsuppID, Orders_OrdersID )
);
)sql";
  auto report = ExecuteSql(&db, ddl);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->statements, 2);
  EXPECT_EQ(report->tables_created, 1);
  EXPECT_EQ(db.name(), "demo");
  auto table = db.GetTable("fact_table_revenue");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->schema().num_columns(), 3u);
  EXPECT_EQ((*table)->schema().primary_key().size(), 2u);
  EXPECT_EQ((*table)->schema().columns()[2].type, DataType::kDouble);
}

TEST(SqlTest, ForeignKeysAndIndexes) {
  Database db;
  const char* ddl = R"sql(
CREATE TABLE dim_part ( partID BIGINT NOT NULL, p_name VARCHAR(55),
                        PRIMARY KEY(partID) );
CREATE TABLE fact_rev ( partID BIGINT, revenue DOUBLE PRECISION,
  FOREIGN KEY (partID) REFERENCES dim_part (partID) );
CREATE INDEX idx_part ON fact_rev (partID);
)sql";
  auto report = ExecuteSql(&db, ddl);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->tables_created, 2);
  EXPECT_EQ(report->indexes_created, 1);
  EXPECT_TRUE((*db.GetTable("fact_rev"))->HasIndex({"partID"}));
}

TEST(SqlTest, InsertLiterals) {
  Database db;
  const char* script = R"sql(
CREATE TABLE t ( i BIGINT, d DOUBLE PRECISION, s VARCHAR(10), b BOOLEAN,
                 dt DATE );
INSERT INTO t VALUES (1, 2.5, 'it''s', TRUE, DATE '1995-03-15'),
                     (NULL, NULL, NULL, NULL, NULL);
)sql";
  auto report = ExecuteSql(&db, script);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rows_inserted, 2);
  const Table& t = **db.GetTable("t");
  EXPECT_EQ(t.rows()[0][2].as_string(), "it's");
  EXPECT_EQ(t.rows()[0][4].ToString(), "1995-03-15");
  EXPECT_TRUE(t.rows()[1][0].is_null());
}

TEST(SqlTest, DropTableIfExists) {
  Database db;
  ASSERT_TRUE(ExecuteSql(&db, "CREATE TABLE t (a INT);").ok());
  EXPECT_TRUE(ExecuteSql(&db, "DROP TABLE IF EXISTS t;").ok());
  EXPECT_TRUE(ExecuteSql(&db, "DROP TABLE IF EXISTS t;").ok());
  EXPECT_TRUE(ExecuteSql(&db, "DROP TABLE t;").status().IsNotFound());
}

TEST(SqlTest, CommentsAndCaseInsensitivity) {
  Database db;
  const char* ddl =
      "-- a star schema\n"
      "create table T1 ( A bigint not null, primary key (A) );\n";
  EXPECT_TRUE(ExecuteSql(&db, ddl).ok());
  EXPECT_FALSE((*db.GetTable("T1"))->schema().columns()[0].nullable);
}

TEST(SqlTest, ParseErrors) {
  Database db;
  EXPECT_TRUE(ExecuteSql(&db, "CREATE TABLE (").status().IsParseError());
  EXPECT_TRUE(ExecuteSql(&db, "SELECT 1;").status().IsParseError());
  EXPECT_TRUE(
      ExecuteSql(&db, "CREATE TABLE t (a FANCYTYPE);").status().IsParseError());
  EXPECT_TRUE(ExecuteSql(&db, "CREATE TABLE t (a INT) garbage")
                  .status()
                  .IsParseError());
}

TEST(SqlTest, SchemaToDdlRoundtrips) {
  Database db;
  TableSchema dim("dim_part");
  ASSERT_TRUE(dim.AddColumn({"partID", DataType::kInt64, false}).ok());
  ASSERT_TRUE(dim.AddColumn({"p_name", DataType::kString, true}).ok());
  ASSERT_TRUE(dim.SetPrimaryKey({"partID"}).ok());
  ASSERT_TRUE(db.CreateTable(dim).ok());

  TableSchema schema("fact");
  ASSERT_TRUE(schema.AddColumn({"partID", DataType::kInt64, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"revenue", DataType::kDouble, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"ship", DataType::kDate, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"flag", DataType::kBool, true}).ok());
  ASSERT_TRUE(schema.SetPrimaryKey({"partID"}).ok());
  ASSERT_TRUE(
      schema.AddForeignKey({{"partID"}, "dim_part", {"partID"}}).ok());

  std::string ddl = SchemaToDdl(schema);
  auto report = ExecuteSql(&db, ddl);
  ASSERT_TRUE(report.ok()) << report.status() << "\n" << ddl;
  const TableSchema& round = (*db.GetTable("fact"))->schema();
  EXPECT_EQ(round.num_columns(), 4u);
  EXPECT_EQ(round.primary_key(), schema.primary_key());
  ASSERT_EQ(round.foreign_keys().size(), 1u);
  EXPECT_EQ(round.foreign_keys()[0].referenced_table, "dim_part");
  EXPECT_EQ(round.columns()[2].type, DataType::kDate);
}

// --- CSV -----------------------------------------------------------------

TEST(CsvTest, RoundtripWithNullsAndQuoting) {
  Table t(MakePartSchema());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::String("a,b \"q\"\nline"),
                        Value::Double(1.5)})
                  .ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Null(), Value::Null()}).ok());
  std::string csv = TableToCsv(t);
  Table t2(MakePartSchema());
  ASSERT_TRUE(LoadCsvInto(&t2, csv).ok());
  ASSERT_EQ(t2.num_rows(), 2u);
  EXPECT_EQ(t2.rows()[0][1].as_string(), "a,b \"q\"\nline");
  EXPECT_TRUE(t2.rows()[1][1].is_null());
  EXPECT_DOUBLE_EQ(t2.rows()[0][2].as_double(), 1.5);
}

TEST(CsvTest, HeaderMismatchRejected) {
  Table t(MakePartSchema());
  EXPECT_TRUE(LoadCsvInto(&t, "x,y,z\n").IsParseError());
  EXPECT_TRUE(LoadCsvInto(&t, "p_partkey,p_name\n").IsParseError());
}

TEST(CsvTest, TypeErrorsCarryLineNumbers) {
  Table t(MakePartSchema());
  Status s = LoadCsvInto(&t, "p_partkey,p_name,p_retailprice\nnotanint,a,1\n");
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

// Property: random tables survive the CSV roundtrip.
class CsvRoundtripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundtripProperty, RandomTableRoundtrips) {
  Prng rng(GetParam() * 31 + 1);
  TableSchema schema("r");
  ASSERT_TRUE(schema.AddColumn({"i", DataType::kInt64, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"d", DataType::kDouble, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"s", DataType::kString, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"dt", DataType::kDate, true}).ok());
  Table t(schema);
  for (int r = 0; r < 50; ++r) {
    Row row;
    row.push_back(rng.Chance(0.1) ? Value::Null()
                                  : Value::Int(rng.Uniform(-1000, 1000)));
    row.push_back(rng.Chance(0.1)
                      ? Value::Null()
                      : Value::Double(rng.Uniform(0, 1000) * 0.25));
    row.push_back(rng.Chance(0.1)
                      ? Value::Null()
                      : Value::String(rng.Word(6) + ",\"" + rng.Word(2)));
    row.push_back(rng.Chance(0.1)
                      ? Value::Null()
                      : Value::Date(static_cast<int32_t>(
                            rng.Uniform(0, 20000))));
    ASSERT_TRUE(t.Insert(std::move(row)).ok());
  }
  Table t2(schema);
  ASSERT_TRUE(LoadCsvInto(&t2, TableToCsv(t)).ok());
  ASSERT_EQ(t2.num_rows(), t.num_rows());
  const std::vector<Row> rows = t.rows();
  const std::vector<Row> rows2 = t2.rows();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_TRUE(rows[i][c].SameAs(rows2[i][c]))
          << "row " << i << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundtripProperty,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace quarry::storage
