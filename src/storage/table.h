#ifndef QUARRY_STORAGE_TABLE_H_
#define QUARRY_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"
#include "storage/key.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace quarry::storage {

class TableWriter;

/// \brief A columnar table with optional hash indexes (DESIGN.md §8).
///
/// Rows live in an append-only list of immutable chunks (no selection
/// vector), each column a ValueSegment in its declared type, never kMixed,
/// followed by at most kChunkRows - 1 pending rows held in ColumnBuilders.
/// Every chunk but the last holds exactly kChunkRows rows, so row r sits
/// at offset r % kChunkRows of chunk r / kChunkRows (the pending rows
/// count as the chunk after the last). A batch append (InsertAll, a
/// TableWriter) seals its pending rows into a short last chunk; the next
/// append copies that chunk back into pending rows, so appends never
/// fragment a table.
///
/// Sealed chunks are shared, never written: ScanChunks hands them out
/// whole, Clone copies their pointers, and a change to stored cells (a
/// loader merge, AddColumn, SetCell) builds new segments and swaps in a new
/// chunk, so a scan, a clone or a published generation keeps what it saw.
/// const methods never mutate, so readers may scan one table concurrently.
///
/// Rows are validated against the schema on insertion: arity, types (an
/// INT widens into a DOUBLE column, where values beyond 2^53 round; a
/// DOUBLE narrows into an INT column only when it holds an int64 exactly),
/// NOT NULL constraints and primary-key uniqueness. Keys (primary key,
/// indexes) follow the RowKey rule (storage/key.h) on the stored values.
class Table {
 public:
  /// Rows per sealed chunk: the stored layout, and the largest chunk
  /// ScanChunks can share without copying.
  static constexpr size_t kChunkRows = 1024;

  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  /// A copy that shares every sealed chunk and copies what can still
  /// change: the pending rows, the primary-key set and the indexes.
  /// Recovery paths snapshot a table before a risky mutation and restore
  /// it on failure.
  std::unique_ptr<Table> Clone() const;

  /// Deterministic content hash over schema and rows; equal state yields
  /// equal fingerprints across runs (used by rollback tests to assert a
  /// restored table is bit-identical to its snapshot, and by MANIFEST.json).
  uint64_t Fingerprint() const;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t num_rows() const { return num_rows_; }

  /// Every row, materialized as Values (a copy of the whole table).
  std::vector<Row> rows() const;
  /// Row `r` (< num_rows()), materialized as Values.
  Row row(size_t r) const;

  /// Columnar scan: the rows as compact chunks of at most `chunk_size`
  /// rows. With chunk_size >= kChunkRows every sealed chunk is shared as
  /// it is stored, and only the pending rows are copied; a smaller size
  /// copies every row into chunks cut at multiples of `chunk_size`. The
  /// chunks are a snapshot: later mutations don't show through. Feeds the
  /// ETL executor's Datastore kernel (DESIGN.md §8).
  std::vector<Chunk> ScanChunks(int64_t chunk_size) const;

  /// Validates and appends a row.
  Status Insert(Row row);

  /// Appends many rows, stopping at the first failure, then seals.
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

  /// Overwrites one cell. Refuses primary-key and indexed columns (their
  /// hashes are baked into the index structures) and validates the new
  /// value against the column's type and nullability.
  Status SetCell(size_t row, size_t column, Value value);

  /// Bytes the table holds in memory: typed payloads, null masks, string
  /// heap bytes and key structures. With `counted`, a stored segment
  /// already in it is skipped and every other one is added, so a sum over
  /// tables that share segments (a Clone and its source) counts each once.
  size_t MemoryBytes(
      std::unordered_set<const ValueSegment*>* counted = nullptr) const;

 private:
  friend class TableWriter;

  /// A CREATE INDEX: every row's key has a KeyIndex id, and row r is
  /// position r of its key's postings.
  struct Index {
    std::vector<std::string> columns;
    std::vector<size_t> positions;
    KeyIndex keys;
    KeyPostings rows;
  };

  /// Sealed chunks, then the pending rows as one more part.
  size_t num_parts() const { return chunks_.size() + 1; }
  size_t PartRows(size_t part) const;
  const ValueSegment& Segment(size_t part, size_t column) const;

  Status ValidateAndCoerce(Row* row) const;
  /// Refuses an update of a primary-key or indexed column (their hashes
  /// are baked into the key structures).
  Status CheckUpdatable(size_t column) const;
  /// SetCell's checks of writing `value` into `column`: CheckUpdatable,
  /// NOT NULL, and the column's coercion, applied to `value` in place.
  Status CheckCellUpdate(size_t column, Value* value) const;
  /// Adds stored row `r` to every CREATE INDEX.
  void IndexRow(size_t r);
  /// Before an append: copies a short last chunk back into pending rows.
  void Unseal();
  /// Seals the pending rows into a chunk, a short one below kChunkRows.
  void Seal();
  /// Swaps in a new chunk `part` whose `segments` replace the stored ones
  /// where non-null.
  void ReplaceSegments(size_t part,
                       std::vector<std::unique_ptr<ColumnBuilder>>* segments);

  TableSchema schema_;
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  std::vector<ColumnBuilder> pending_;  ///< One per column.
  size_t pending_rows_ = 0;
  size_t num_rows_ = 0;
  std::vector<Index> indexes_;
  // Primary-key uniqueness check; empty when the table has no PK. One key
  // per row, so row r's key has id r.
  KeyIndex pk_keys_;
  std::vector<size_t> pk_positions_;
};

/// \brief One ETL load into a table (DESIGN.md §8, loader contract): the
/// live rows of each appended chunk land in the table's column types,
/// gathered typed into its pending rows. A keyed load merges a row whose
/// key is already stored, or was loaded earlier, into that row by filling
/// its NULL cells; the first row with a key wins. Keys are compared as the
/// table stores them (an INT bound for a DOUBLE key column keys as the
/// double it becomes). A load keyed on the table's primary-key columns
/// decides insert-or-merge with one intern into the primary-key set; any
/// other keyed load first indexes the stored rows' keys.
///
/// The writer starts by copying a short last chunk back into pending rows.
/// Merged cells land in one private copy per touched (chunk, column),
/// swapped in by Finish(), which also seals the pending rows. The
/// destructor calls Finish() if the owner has not.
class TableWriter {
 public:
  /// `sources[c]` is the input column feeding table column c, or -1 for
  /// NULL; `keys` are the table columns a keyed load merges on (empty: no
  /// merging).
  TableWriter(Table* table, std::vector<int> sources,
              std::vector<size_t> keys);
  ~TableWriter();

  TableWriter(const TableWriter&) = delete;
  TableWriter& operator=(const TableWriter&) = delete;

  /// Loads `chunk`'s live rows in order, adding the number inserted to
  /// `*written`. Fails like Table::Insert (or, for a merge, SetCell) would
  /// on the first failing row, after the rows before it have landed.
  Status Append(const Chunk& chunk, int64_t* written);

  /// Swaps in the merged segments and seals the pending rows. Idempotent.
  void Finish();

 private:
  /// How table column c reads from the current input chunk: from
  /// `source` (null: the column loads NULL), and when `typed`, by copying
  /// its payload (the column's own representation, or INT into DOUBLE);
  /// otherwise cell by cell through Value coercion.
  struct Plan {
    const ValueSegment* source = nullptr;
    bool typed = false;
  };

  void PlanChunk(const Chunk& chunk);
  /// Sets key_ to the stored form of `columns` at input row `phys`; false
  /// when a cell cannot be stored in its column's type.
  bool BuildKey(const std::vector<size_t>& columns, uint32_t phys);
  /// Insert's checks of input row `phys`, in column order.
  Status ValidateRow(uint32_t phys) const;
  /// Appends the staged input rows into the pending rows.
  void Flush();
  Status Merge(size_t target, uint32_t phys);

  Table* table_;
  const std::vector<int> sources_;
  const std::vector<size_t> keys_;
  /// True when the merge keys are the primary-key columns: the merge
  /// index is the table's primary-key set, keyed in its column order.
  bool on_pk_ = false;
  /// Merge index of any other keyed load: the stored rows' keys, with the
  /// first row holding each.
  KeyIndex merge_keys_;
  std::vector<size_t> first_rows_;
  std::vector<Plan> plans_;
  bool needs_check_ = false;
  std::vector<uint32_t> staged_;
  RowKey key_;
  /// Merge copies of sealed segments, at [part * columns + column].
  std::vector<std::unique_ptr<ColumnBuilder>> copies_;
  bool finished_ = false;
};

}  // namespace quarry::storage

#endif  // QUARRY_STORAGE_TABLE_H_
