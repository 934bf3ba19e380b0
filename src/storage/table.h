#ifndef QUARRY_STORAGE_TABLE_H_
#define QUARRY_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"
#include "storage/key.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace quarry::storage {

/// \brief A row-store table with optional hash indexes.
///
/// Rows are validated against the schema on insertion: arity, types (ints
/// are silently widened to DOUBLE columns and vice versa when lossless),
/// NOT NULL constraints and primary-key uniqueness. Keys (primary key,
/// indexes) follow the RowKey rule (storage/key.h) on the coerced values.
class Table {
 public:
  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  /// Deep copy (schema, rows, indexes, PK bookkeeping). Recovery paths
  /// snapshot a table before a risky mutation and restore it on failure.
  /// The key structures are flat arrays, so beyond the rows the copy costs
  /// a few vector copies, not an allocation per key.
  std::unique_ptr<Table> Clone() const;

  /// Deterministic content hash over schema and rows; equal state yields
  /// equal fingerprints across runs (used by rollback tests to assert a
  /// restored table is bit-identical to its snapshot).
  uint64_t Fingerprint() const;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }

  /// Columnar scan: the table's rows sliced into typed chunks of at most
  /// `chunk_size` rows each (storage/chunk.h). The chunks snapshot the
  /// current contents — later mutations don't show through. Feeds the
  /// ETL executor's Datastore kernel (DESIGN.md §8).
  std::vector<Chunk> ScanChunks(int64_t chunk_size) const;

  /// Validates and appends a row.
  Status Insert(Row row);

  /// Appends many rows; stops at the first failure.
  Status InsertAll(std::vector<Row> rows);

  /// Appends a column to the schema (ALTER TABLE ADD COLUMN): existing
  /// rows get NULL, so the column must be nullable.
  Status AddColumn(Column column);

  /// Builds (or rebuilds) a hash index over the given columns.
  Status CreateIndex(const std::vector<std::string>& columns);

  /// True if an index over exactly these columns exists.
  bool HasIndex(const std::vector<std::string>& columns) const;

  /// Row positions matching `key` via the index over `columns`, in
  /// insertion order. Fails with NotFound when no such index exists.
  Result<std::vector<size_t>> IndexLookup(
      const std::vector<std::string>& columns, const Row& key) const;

  /// Full-scan lookup of rows where column `name` SameAs `value`.
  std::vector<size_t> ScanEquals(const std::string& column,
                                 const Value& value) const;

  /// Removes all rows (indexes stay defined but empty).
  void Truncate();

  /// Overwrites one cell in place. Refuses primary-key and indexed columns
  /// (their hashes are baked into the index structures) and validates the
  /// new value against the column's type and nullability. Used by the ETL
  /// loader's merge semantics (fill NULLs of an existing row on key match).
  Status SetCell(size_t row, size_t column, Value value);

 private:
  /// A CREATE INDEX: every row's key has a KeyIndex id, and row r is
  /// position r of its key's postings.
  struct Index {
    std::vector<std::string> columns;
    std::vector<size_t> positions;
    KeyIndex keys;
    KeyPostings rows;
  };

  Status ValidateAndCoerce(Row* row) const;

  TableSchema schema_;
  std::vector<Row> rows_;
  std::vector<Index> indexes_;
  // Primary-key uniqueness check; empty when the table has no PK. One key
  // per row, so row r's key has id r.
  KeyIndex pk_keys_;
  std::vector<size_t> pk_positions_;
};

}  // namespace quarry::storage

#endif  // QUARRY_STORAGE_TABLE_H_
