// storage::RowKey, ChunkKeys, KeyIndex and KeyPostings (storage/key.h): the
// key rule every hash table over row keys follows, checked against what a
// table keyed by Row with HashRow and Value::SameAs decides (the reference
// executor's tables, tests/etl_reference.h), ChunkKeys checked row by row
// against RowKey, plus the pinned Value::Hash values Table::Fingerprint
// depends on.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "storage/chunk.h"
#include "storage/key.h"
#include "storage/value.h"

namespace quarry::storage {
namespace {

constexpr int64_t kTwo53 = int64_t{1} << 53;

std::string KeyOf(const Row& row) {
  RowKey key;
  for (const Value& v : row) key.Add(v);
  return std::string(key.bytes());
}

/// What the Row-keyed tables decide: equal hashes and SameAs throughout.
bool RowTableEqual(const Row& a, const Row& b) {
  if (a.size() != b.size() || HashRow(a) != HashRow(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].SameAs(b[i])) return false;
  }
  return true;
}

std::vector<Value> Corpus() {
  const double inf = std::numeric_limits<double>::infinity();
  return {Value::Null(),
          Value::Bool(false),
          Value::Bool(true),
          Value::Int(0),
          Value::Int(1),
          Value::Int(-1),
          Value::Int(2),
          Value::Double(0.0),
          Value::Double(-0.0),
          Value::Double(1.0),
          Value::Double(-1.0),
          Value::Double(1.5),
          Value::Double(2.0),
          Value::Int(kTwo53),
          Value::Int(kTwo53 + 1),
          Value::Int(kTwo53 + 2),
          Value::Double(static_cast<double>(kTwo53)),
          Value::Double(static_cast<double>(kTwo53 + 2)),
          Value::Int(INT64_MAX),
          Value::Int(INT64_MAX - 511),
          Value::Int(INT64_MAX - 1023),
          Value::Int(INT64_MIN),
          Value::Double(0x1p63),
          Value::Double(0x1p63 - 1024),
          Value::Double(-0x1p63),
          Value::Double(inf),
          Value::Double(-inf),
          Value::Double(std::numeric_limits<double>::quiet_NaN()),
          Value::Double(1e300),
          Value::Double(5e-324),
          Value::String(""),
          Value::String("a string past sixteen bytes"),
          Value::String("1"),
          Value::String("a"),
          Value::String("ab"),
          Value::String(std::string("a\0b", 3)),
          Value::Date(0),
          Value::Date(1),
          Value::Date(-1)};
}

TEST(RowKeyTest, SingleValuesDecideWhatRowKeyedTablesDecide) {
  const std::vector<Value> corpus = Corpus();
  for (const Value& a : corpus) {
    for (const Value& b : corpus) {
      EXPECT_EQ(KeyOf({a}) == KeyOf({b}), RowTableEqual({a}, {b}))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(RowKeyTest, TheKeyRuleOnItsEdgeCases) {
  const double two53 = static_cast<double>(kTwo53);
  EXPECT_EQ(KeyOf({Value::Int(1)}), KeyOf({Value::Double(1.0)}));
  EXPECT_EQ(KeyOf({Value::Int(0)}), KeyOf({Value::Double(-0.0)}));
  EXPECT_EQ(KeyOf({Value::Double(0.0)}), KeyOf({Value::Double(-0.0)}));
  EXPECT_EQ(KeyOf({Value::Null()}), KeyOf({Value::Null()}));
  EXPECT_EQ(KeyOf({Value::Int(kTwo53)}), KeyOf({Value::Double(two53)}));
  EXPECT_EQ(KeyOf({Value::Int(INT64_MIN)}), KeyOf({Value::Double(-0x1p63)}));
  // SameAs equates these (the int rounds to the double); the key rule,
  // like the Row-keyed tables, does not.
  EXPECT_TRUE(Value::Int(kTwo53 + 1).SameAs(Value::Double(two53)));
  EXPECT_NE(KeyOf({Value::Int(kTwo53 + 1)}), KeyOf({Value::Double(two53)}));
  EXPECT_NE(KeyOf({Value::Int(INT64_MAX)}), KeyOf({Value::Double(0x1p63)}));
  EXPECT_NE(KeyOf({Value::Int(1)}), KeyOf({Value::Bool(true)}));
  EXPECT_NE(KeyOf({Value::Int(1)}), KeyOf({Value::String("1")}));
  EXPECT_NE(KeyOf({Value::Int(0)}), KeyOf({Value::Date(0)}));
  EXPECT_NE(KeyOf({Value::Int(0)}), KeyOf({Value::Null()}));
}

TEST(RowKeyTest, CompositeKeysDecideWhatRowKeyedTablesDecide) {
  const std::vector<Value> parts = {
      Value::Null(),        Value::Int(1),         Value::Double(1.0),
      Value::Double(-0.0),  Value::Int(0),         Value::String(""),
      Value::String("a"),   Value::String("ab"),   Value::String("b"),
      Value::Int(kTwo53 + 1), Value::Double(static_cast<double>(kTwo53))};
  std::vector<Row> keys;
  for (const Value& a : parts) {
    for (const Value& b : parts) keys.push_back({a, b});
  }
  for (const Row& a : keys) {
    for (const Row& b : keys) {
      EXPECT_EQ(KeyOf(a) == KeyOf(b), RowTableEqual(a, b))
          << a[0].ToString() << "," << a[1].ToString() << " vs "
          << b[0].ToString() << "," << b[1].ToString();
    }
  }
  // Arity is part of the key.
  EXPECT_NE(KeyOf({Value::String("a")}),
            KeyOf({Value::String("a"), Value::Null()}));
}

/// The corpus as one kMixed column (column 0) plus one column per typed
/// representation, int, double, string, date and bool, with the NULL
/// (columns 1-5) and without it (columns 6-10).
std::vector<std::vector<Value>> CorpusColumns() {
  const std::vector<Value> corpus = Corpus();
  std::vector<std::vector<Value>> columns = {corpus};  // kMixed
  for (bool with_null : {true, false}) {
    std::vector<Value> ints, doubles, strings, dates, bools;
    for (const Value& v : corpus) {
      if (v.is_null() && !with_null) continue;
      if (v.is_null() || v.is_int()) ints.push_back(v);
      if (v.is_null() || v.is_double()) doubles.push_back(v);
      if (v.is_null() || v.is_string()) strings.push_back(v);
      if (v.is_null() || v.is_date()) dates.push_back(v);
      if (v.is_null() || v.is_bool()) bools.push_back(v);
    }
    columns.insert(columns.end(), {ints, doubles, strings, dates, bools});
  }
  return columns;
}

/// Checks every live row of `keys`, encoded from `chunk` over `positions`,
/// against the RowKey of the row's Values and KeyIndex's hash of it.
void ExpectChunkKeysMatchRowKeys(const ChunkKeys& keys, const Chunk& chunk,
                                 const std::vector<size_t>& positions) {
  ASSERT_EQ(keys.size(), chunk.num_rows());
  for (size_t i = 0; i < chunk.num_rows(); ++i) {
    RowKey expected;
    std::string row_text;
    for (size_t p : positions) {
      expected.Add(chunk.ValueAt(p, i));
      row_text += chunk.ValueAt(p, i).ToString() + ",";
    }
    EXPECT_EQ(keys.key(i), expected.bytes()) << "live row " << i << ": "
                                             << row_text;
    EXPECT_EQ(keys.has_null(i), expected.has_null()) << row_text;
    EXPECT_EQ(keys.hash(i), KeyIndex::Hash(expected.bytes())) << row_text;
  }
}

TEST(RowKeyTest, SegmentRowsKeyLikeTheirValues) {
  // Every representation, kMixed included, takes the same key path, one
  // row at a time (RowKey) and a chunk at a time (ChunkKeys).
  const std::vector<std::vector<Value>> columns = CorpusColumns();
  for (const std::vector<Value>& column : columns) {
    auto segment = std::make_shared<const ValueSegment>(
        ValueSegment::FromValues(column));
    for (size_t i = 0; i < column.size(); ++i) {
      RowKey from_segment;
      from_segment.Add(*segment, i);
      EXPECT_EQ(from_segment.bytes(), KeyOf({column[i]}))
          << column[i].ToString() << " rep "
          << static_cast<int>(segment->rep());
      EXPECT_EQ(from_segment.has_null(), column[i].is_null());
      EXPECT_EQ(segment->IsNull(i), column[i].is_null());
    }

    // The whole chunk, then every other row and the last one under a
    // selection vector.
    const Chunk whole(column.size(), {segment});
    ChunkKeys keys;
    keys.Set(whole, {0});
    ExpectChunkKeysMatchRowKeys(keys, whole, {0});
    std::vector<uint32_t> selected;
    for (uint32_t r = 1; r < column.size(); r += 2) selected.push_back(r);
    if (selected.back() != column.size() - 1) {
      selected.push_back(static_cast<uint32_t>(column.size() - 1));
    }
    const Chunk sparse(
        column.size(), {segment},
        std::make_shared<const std::vector<uint32_t>>(selected));
    keys.Set(sparse, {0});
    ExpectChunkKeysMatchRowKeys(keys, sparse, {0});
  }

  // Multi-column keys over columns of every representation: column c's
  // row r is its values[(r * (c + 1)) % size], so the rows mix NULLs, long
  // and empty strings, and numbers of both kinds across the columns.
  const size_t rows = columns[0].size() * 3;
  std::vector<Chunk::SegmentPtr> segments;
  for (size_t c = 0; c < columns.size(); ++c) {
    std::vector<Value> values;
    for (size_t r = 0; r < rows; ++r) {
      values.push_back(columns[c][(r * (c + 1)) % columns[c].size()]);
    }
    segments.push_back(std::make_shared<const ValueSegment>(
        ValueSegment::FromValues(std::move(values))));
  }
  std::vector<uint32_t> selected;
  for (uint32_t r = 0; r < rows; ++r) {
    if (r % 3 != 1) selected.push_back(r);
  }
  const Chunk whole(rows, segments);
  const Chunk sparse(rows, segments,
                     std::make_shared<const std::vector<uint32_t>>(selected));
  const std::vector<std::vector<size_t>> key_columns = {
      {1, 2}, {2, 1},  {3, 0, 4}, {5, 3, 2, 1, 0, 4}, {2, 2},
      {6, 7}, {9, 10}, {6, 8, 1}, {7, 0, 9, 3},       {}};
  ChunkKeys keys;
  for (const std::vector<size_t>& positions : key_columns) {
    for (const Chunk* chunk : {&whole, &sparse}) {
      keys.Set(*chunk, positions);
      ExpectChunkKeysMatchRowKeys(keys, *chunk, positions);
    }
  }
}

TEST(RowKeyTest, ClearResetsBytesAndNullFlag) {
  RowKey key;
  key.Add(Value::Null());
  EXPECT_TRUE(key.has_null());
  key.Clear();
  EXPECT_TRUE(key.bytes().empty());
  EXPECT_FALSE(key.has_null());
  key.Add(Value::Int(3));
  EXPECT_EQ(key.bytes(), KeyOf({Value::Int(3)}));
}

TEST(ValueHashTest, ReturnsTheSameValuesAsBefore) {
  // Table::Fingerprint hashes rows through Value::Hash, and recovery
  // compares it with the fingerprint persisted in MANIFEST.json.
  std::hash<int64_t> hi;
  std::hash<double> hd;
  EXPECT_EQ(Value::Int(1).Hash(), hd(1.0));
  EXPECT_EQ(Value::Int(kTwo53).Hash(), hd(static_cast<double>(kTwo53)));
  EXPECT_EQ(Value::Int(kTwo53 + 1).Hash(), hi(kTwo53 + 1));
  EXPECT_EQ(Value::Int(INT64_MIN).Hash(), hd(-0x1p63));
  EXPECT_EQ(Value::Int(INT64_MAX - 1023).Hash(), hd(0x1p63 - 1024));
  // These round to 2^63, outside int64: hashed as the int itself.
  EXPECT_EQ(Value::Int(INT64_MAX).Hash(), hi(INT64_MAX));
  EXPECT_EQ(Value::Int(INT64_MAX - 511).Hash(), hi(INT64_MAX - 511));
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Int(0).Hash());
}

TEST(KeyIndexTest, DenseIdsInFirstInsertOrder) {
  KeyIndex index;
  EXPECT_EQ(index.Find(KeyOf({Value::Int(0)})), KeyIndex::kNotFound);
  // Enough keys to grow the table several times.
  for (int64_t i = 0; i < 5000; ++i) {
    auto [id, inserted] = index.Insert(KeyOf({Value::Int(i * 7919)}));
    EXPECT_EQ(id, static_cast<uint32_t>(i));
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(index.size(), 5000u);
  for (int64_t i = 4999; i >= 0; --i) {
    const std::string key = KeyOf({Value::Double(i * 7919.0)});
    EXPECT_EQ(index.Find(key), static_cast<uint32_t>(i));
    auto [id, inserted] = index.Insert(key);
    EXPECT_EQ(id, static_cast<uint32_t>(i));
    EXPECT_FALSE(inserted);
  }
  EXPECT_EQ(index.Find(KeyOf({Value::Int(1)})), KeyIndex::kNotFound);
  EXPECT_EQ(index.size(), 5000u);

  // Copies are independent.
  KeyIndex copy = index;
  EXPECT_EQ(copy.Insert(KeyOf({Value::Int(1)})).first, 5000u);
  EXPECT_EQ(index.Find(KeyOf({Value::Int(1)})), KeyIndex::kNotFound);

  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(KeyOf({Value::Int(0)})), KeyIndex::kNotFound);
  EXPECT_EQ(index.Insert("").first, 0u);  // A zero-column key.
  EXPECT_EQ(index.Find(""), 0u);
  EXPECT_EQ(copy.Find(KeyOf({Value::Int(7919)})), 1u);
}

TEST(KeyIndexTest, PrecomputedHashesGiveTheSameIds) {
  // Keys of every length around the 16-byte inline-hash boundary.
  std::vector<std::string> keys;
  for (const Value& v : Corpus()) keys.push_back(KeyOf({v}));
  for (int64_t i = 0; i < 2000; ++i) {
    keys.push_back(KeyOf({Value::Int(i)}));
    keys.push_back(KeyOf({Value::Int(i), Value::String("x")}));
    keys.push_back(KeyOf({Value::String(std::string(i % 24, 'k'))}));
  }
  KeyIndex one_arg;
  KeyIndex hashed;
  for (const std::string& key : keys) {
    const auto expected = one_arg.Insert(key);
    EXPECT_EQ(hashed.Insert(key, KeyIndex::Hash(key)), expected);
  }
  EXPECT_EQ(hashed.size(), one_arg.size());
  for (const std::string& key : keys) {
    const uint32_t id = one_arg.Find(key);
    ASSERT_NE(id, KeyIndex::kNotFound);
    EXPECT_EQ(hashed.Find(key, KeyIndex::Hash(key)), id);
    EXPECT_EQ(hashed.Find(key), id);
    EXPECT_EQ(one_arg.Find(key, KeyIndex::Hash(key)), id);
  }
  const std::string absent = KeyOf({Value::String("absent")});
  EXPECT_EQ(hashed.Find(absent, KeyIndex::Hash(absent)), KeyIndex::kNotFound);
}

TEST(KeyIndexTest, EraseLastUndoesTheLastInsert) {
  // The table's state after EraseLast is the state before the insert, at
  // every size, across growth, and with colliding probe sequences.
  KeyIndex index;
  for (int64_t i = 0; i < 3000; ++i) {
    const std::string key = KeyOf({Value::Int(i)});
    ASSERT_TRUE(index.Insert(key).second);
    if (i % 3 == 0) {
      const std::string extra =
          KeyOf({Value::String(std::string("x").append(std::to_string(i)))});
      const uint32_t id = index.Insert(extra).first;
      ASSERT_EQ(id, index.size() - 1);
      index.EraseLast();
      EXPECT_EQ(index.Find(extra), KeyIndex::kNotFound);
    }
    EXPECT_EQ(index.size(), static_cast<size_t>(i) + 1);
  }
  for (int64_t i = 0; i < 3000; ++i) {
    EXPECT_EQ(index.Find(KeyOf({Value::Int(i)})), static_cast<uint32_t>(i));
  }
  index.EraseLast();
  EXPECT_EQ(index.Find(KeyOf({Value::Int(2999)})), KeyIndex::kNotFound);
  EXPECT_EQ(index.Insert(KeyOf({Value::Int(2999)})).first, 2999u);
}

TEST(RowKeyTest, AddAsKeysAnIntAsTheDoubleItIsStoredAs) {
  const ValueSegment ints = ValueSegment::FromTyped(
      std::vector<int64_t>{1, kTwo53 + 1, 0}, std::vector<uint8_t>{0, 0, 1});
  for (size_t r = 0; r < 3; ++r) {
    RowKey as_double;
    as_double.AddAs(ints, r, DataType::kDouble);
    RowKey as_int;
    as_int.AddAs(ints, r, DataType::kInt64);
    const Value v = ints.At(r);
    const Value stored =
        v.is_null() ? v : Value::Double(static_cast<double>(v.as_int()));
    EXPECT_EQ(as_double.bytes(), KeyOf({stored})) << r;
    EXPECT_EQ(as_int.bytes(), KeyOf({v})) << r;
  }
  // Only beyond 2^53 does the stored key differ from the input's.
  RowKey big;
  big.AddAs(ints, 1, DataType::kDouble);
  EXPECT_NE(big.bytes(), KeyOf({Value::Int(kTwo53 + 1)}));
  EXPECT_EQ(big.bytes(), KeyOf({Value::Int(kTwo53)}));
}

TEST(KeyPostingsTest, PositionsPerKeyInAppendOrder) {
  KeyPostings postings;
  for (uint32_t id : {0u, 1u, 0u, 2u, 0u}) postings.Append(id);
  auto positions = [&postings](uint32_t id) {
    std::vector<uint32_t> out;
    postings.ForEach(id, [&out](uint32_t p) { out.push_back(p); });
    return out;
  };
  EXPECT_EQ(positions(0), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(positions(1), (std::vector<uint32_t>{1}));
  EXPECT_EQ(positions(2), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(positions(3).empty());
  EXPECT_TRUE(positions(KeyIndex::kNotFound).empty());
  postings.Clear();
  EXPECT_TRUE(positions(0).empty());
  postings.Append(0);
  EXPECT_EQ(positions(0), (std::vector<uint32_t>{0}));
}

}  // namespace
}  // namespace quarry::storage
