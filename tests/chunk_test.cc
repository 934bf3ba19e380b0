// Unit tests for the columnar storage layer (DESIGN.md §8): ValueSegment's
// exact Value round-trip (the property the differential harness rests on),
// Gather, Chunk selection-vector composition, and the row-splitting
// helpers MakeChunk / ChunkRows / Table::ScanChunks.

#include "storage/chunk.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/value.h"

namespace quarry::storage {
namespace {

std::vector<Row> SampleRows() {
  // One column per runtime type, with NULL holes, over 5 rows.
  std::vector<Row> rows;
  rows.push_back({Value::Int(1), Value::Double(1.5), Value::String("a"),
                  Value::Bool(true), Value::Date(100)});
  rows.push_back({Value::Null(), Value::Double(-2.5), Value::Null(),
                  Value::Bool(false), Value::Null()});
  rows.push_back({Value::Int(3), Value::Null(), Value::String(""),
                  Value::Null(), Value::Date(-7)});
  rows.push_back({Value::Int(-4), Value::Double(0.0), Value::String("dd"),
                  Value::Bool(true), Value::Date(0)});
  rows.push_back({Value::Int(5), Value::Double(99.75), Value::String("e"),
                  Value::Bool(false), Value::Date(20000)});
  return rows;
}

/// Segment over column `column` of rows [begin, end).
ValueSegment SegmentOf(const std::vector<Row>& rows, size_t column,
                       size_t begin, size_t end) {
  std::vector<Value> values;
  for (size_t r = begin; r < end; ++r) values.push_back(rows[r][column]);
  return ValueSegment::FromValues(std::move(values));
}

void ExpectSameValue(const Value& got, const Value& want) {
  EXPECT_EQ(got.is_null(), want.is_null());
  EXPECT_TRUE(got.SameAs(want)) << got.ToString() << " vs "
                                << want.ToString();
}

TEST(ValueSegmentTest, TypedColumnsRoundTripExactly) {
  std::vector<Row> rows = SampleRows();
  const ValueSegment::Rep want_rep[] = {
      ValueSegment::Rep::kInt64, ValueSegment::Rep::kDouble,
      ValueSegment::Rep::kString, ValueSegment::Rep::kBool,
      ValueSegment::Rep::kDate};
  for (size_t c = 0; c < 5; ++c) {
    ValueSegment seg = SegmentOf(rows, c, 0, rows.size());
    EXPECT_EQ(seg.rep(), want_rep[c]) << "column " << c;
    ASSERT_EQ(seg.size(), rows.size());
    EXPECT_TRUE(seg.has_nulls()) << "column " << c;
    for (size_t r = 0; r < rows.size(); ++r) {
      ExpectSameValue(seg.At(r), rows[r][c]);
      EXPECT_EQ(seg.IsNull(r), rows[r][c].is_null());
    }
  }
}

TEST(ValueSegmentTest, NoNullsMeansNoMask) {
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) rows.push_back({Value::Int(i)});
  ValueSegment seg = SegmentOf(rows, 0, 0, rows.size());
  EXPECT_FALSE(seg.has_nulls());
  for (size_t r = 0; r < rows.size(); ++r) EXPECT_FALSE(seg.IsNull(r));
}

TEST(ValueSegmentTest, MixedTypeColumnFallsBackToValues) {
  // A SUM output whose groups split between Int and Double is the canonical
  // mixed column; the segment must keep the exact per-row runtime type.
  std::vector<Row> rows;
  rows.push_back({Value::Int(1)});
  rows.push_back({Value::Double(2.0)});
  rows.push_back({Value::Null()});
  rows.push_back({Value::String("x")});
  ValueSegment seg = SegmentOf(rows, 0, 0, rows.size());
  EXPECT_EQ(seg.rep(), ValueSegment::Rep::kMixed);
  for (size_t r = 0; r < rows.size(); ++r) {
    ExpectSameValue(seg.At(r), rows[r][0]);
  }
  EXPECT_TRUE(seg.At(0).is_int());
  EXPECT_TRUE(seg.At(1).is_double());  // 2.0 stays Double, not Int
}

TEST(ValueSegmentTest, AllNullSegmentRoundTrips) {
  std::vector<Row> rows;
  for (int i = 0; i < 3; ++i) rows.push_back({Value::Null()});
  ValueSegment seg = SegmentOf(rows, 0, 0, rows.size());
  EXPECT_TRUE(seg.has_nulls());
  for (size_t r = 0; r < 3; ++r) EXPECT_TRUE(seg.At(r).is_null());
}

TEST(ValueSegmentTest, FromValuesOwnsComputedVector) {
  std::vector<Value> values = {Value::Int(7), Value::Null(), Value::Int(9)};
  ValueSegment seg = ValueSegment::FromValues(std::move(values));
  EXPECT_EQ(seg.rep(), ValueSegment::Rep::kInt64);
  ASSERT_EQ(seg.size(), 3u);
  EXPECT_EQ(seg.At(0).as_int(), 7);
  EXPECT_TRUE(seg.At(1).is_null());
  EXPECT_EQ(seg.At(2).as_int(), 9);
}

TEST(ValueSegmentTest, SubrangeAndGather) {
  std::vector<Row> rows = SampleRows();
  ValueSegment seg = SegmentOf(rows, 0, 1, 4);  // rows 1..3
  ASSERT_EQ(seg.size(), 3u);
  EXPECT_TRUE(seg.At(0).is_null());
  EXPECT_EQ(seg.At(1).as_int(), 3);
  EXPECT_EQ(seg.At(2).as_int(), -4);

  ValueSegment full = SegmentOf(rows, 2, 0, rows.size());
  ValueSegment picked = full.Gather({4, 0, 0, 1});
  EXPECT_EQ(picked.rep(), full.rep());
  ASSERT_EQ(picked.size(), 4u);
  EXPECT_EQ(picked.At(0).as_string(), "e");
  EXPECT_EQ(picked.At(1).as_string(), "a");
  EXPECT_EQ(picked.At(2).as_string(), "a");
  EXPECT_TRUE(picked.At(3).is_null());
}

TEST(ChunkTest, SelectionVectorRemapsLiveRows) {
  std::vector<Row> rows = SampleRows();
  Chunk full = MakeChunk(rows, 5, 0, rows.size());
  EXPECT_EQ(full.num_columns(), 5u);
  EXPECT_EQ(full.capacity(), 5u);
  EXPECT_EQ(full.num_rows(), 5u);
  EXPECT_FALSE(full.has_selection());
  EXPECT_EQ(full.PhysicalRow(3), 3u);

  auto sel = std::make_shared<const std::vector<uint32_t>>(
      std::vector<uint32_t>{4, 2, 0});
  Chunk filtered(full.capacity(), full.segments(), sel);
  EXPECT_EQ(filtered.capacity(), 5u);
  EXPECT_EQ(filtered.num_rows(), 3u);
  EXPECT_EQ(filtered.PhysicalRow(0), 4u);
  ExpectSameValue(filtered.ValueAt(0, 0), rows[4][0]);
  ExpectSameValue(filtered.ValueAt(0, 1), rows[2][0]);
  ExpectSameValue(filtered.ValueAt(0, 2), rows[0][0]);

  std::vector<Row> out;
  filtered.AppendRowsTo(&out);
  ASSERT_EQ(out.size(), 3u);
  for (size_t c = 0; c < 5; ++c) {
    ExpectSameValue(out[0][c], rows[4][c]);
    ExpectSameValue(out[1][c], rows[2][c]);
    ExpectSameValue(out[2][c], rows[0][c]);
  }
}

TEST(ChunkTest, ProjectionSharesSegments) {
  std::vector<Row> rows = SampleRows();
  Chunk full = MakeChunk(rows, 5, 0, rows.size());
  // A projection is a pointer copy: same underlying segment objects.
  Chunk projected(full.capacity(), {full.segment_ptr(2), full.segment_ptr(0)},
                  full.selection());
  EXPECT_EQ(projected.num_columns(), 2u);
  EXPECT_EQ(&projected.segment(0), &full.segment(2));
  EXPECT_EQ(&projected.segment(1), &full.segment(0));
}

TEST(ChunkTest, ZeroColumnChunkKeepsItsRows) {
  // A projection onto no columns still has rows: the chunk carries its own
  // row count instead of reading it off a first segment.
  std::vector<Row> rows(4);
  std::vector<Chunk> chunks = ChunkRows(rows, 0, 3);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].num_columns(), 0u);
  EXPECT_EQ(chunks[0].num_rows(), 3u);
  EXPECT_EQ(chunks[1].num_rows(), 1u);

  Chunk filtered(chunks[0].capacity(), {},
                 std::make_shared<const std::vector<uint32_t>>(
                     std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(filtered.capacity(), 3u);
  EXPECT_EQ(filtered.num_rows(), 2u);
  std::vector<Row> out;
  filtered.AppendRowsTo(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].empty());
}

TEST(ChunkTest, ChunkRowsSplitsWithPartialLastChunk) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value::Int(i)});

  std::vector<Chunk> chunks = ChunkRows(rows, 1, 4);
  ASSERT_EQ(chunks.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(chunks[0].num_rows(), 4u);
  EXPECT_EQ(chunks[1].num_rows(), 4u);
  EXPECT_EQ(chunks[2].num_rows(), 2u);
  EXPECT_EQ(chunks[2].ValueAt(0, 1).as_int(), 9);

  EXPECT_EQ(ChunkRows(rows, 1, 1).size(), 10u);    // singletons
  EXPECT_EQ(ChunkRows(rows, 1, 100).size(), 1u);   // one oversized chunk
  EXPECT_EQ(ChunkRows(rows, 1, 0).size(), 10u);    // sizes < 1 act like 1
  EXPECT_TRUE(ChunkRows({}, 1, 4).empty());        // empty input, no chunks

  // Round-trip: re-materializing every chunk reproduces the input exactly.
  std::vector<Row> out;
  for (const Chunk& chunk : chunks) chunk.AppendRowsTo(&out);
  ASSERT_EQ(out.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ExpectSameValue(out[r][0], rows[r][0]);
  }
}

TEST(ChunkTest, TableScanChunksMatchesRows) {
  Database db("src");
  TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"id", DataType::kInt64, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"s", DataType::kString, true}).ok());
  Table* table = *db.CreateTable(std::move(schema));
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(table
                    ->Insert({Value::Int(i),
                              i % 2 == 0 ? Value::String("x")
                                         : Value::Null()})
                    .ok());
  }
  std::vector<Chunk> chunks = table->ScanChunks(3);
  ASSERT_EQ(chunks.size(), 3u);  // 3 + 3 + 1
  std::vector<Row> out;
  for (const Chunk& chunk : chunks) chunk.AppendRowsTo(&out);
  ASSERT_EQ(out.size(), table->rows().size());
  for (size_t r = 0; r < out.size(); ++r) {
    for (size_t c = 0; c < 2; ++c) {
      ExpectSameValue(out[r][c], table->rows()[r][c]);
    }
  }
}

}  // namespace
}  // namespace quarry::storage
