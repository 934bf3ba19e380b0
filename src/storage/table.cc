#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace quarry::storage {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t MixString(uint64_t h, const std::string& s) {
  return Mix(h, std::hash<std::string>{}(s));
}

/// Stores non-NULL `value` in a column of `type`, in place: an INT widens
/// into DOUBLE, a DOUBLE narrows into INT only when it holds an int64
/// exactly. False when the column cannot hold the value.
bool CoerceInto(DataType type, Value* value) {
  if (value->is_int()) {
    if (type == DataType::kInt64) return true;
    if (type != DataType::kDouble) return false;
    *value = Value::Double(value->as_double());
    return true;
  }
  if (value->is_double()) {
    if (type == DataType::kDouble) return true;
    if (type != DataType::kInt64) return false;
    const double d = value->as_double();
    if (!(d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d))) return false;
    *value = Value::Int(static_cast<int64_t>(d));
    return true;
  }
  Result<DataType> actual = value->type();
  return actual.ok() && *actual == type;
}

Status TypeMismatch(const Column& col, const Value& value,
                    const std::string& table) {
  return Status::InvalidArgument(
      std::string("type mismatch in column '") + col.name + "' of '" + table +
      "': expected " + DataTypeToString(col.type) + ", got " +
      DataTypeToString(*value.type()));
}

Status NullInNotNull(const Column& col, const std::string& table) {
  return Status::InvalidArgument("NULL in NOT NULL column '" + col.name +
                                 "' of '" + table + "'");
}

/// Folds stored column `seg`'s cells into the per-row hashes: HashRow's
/// step with each cell's Value::Hash, computed from the typed payload.
void HashColumn(const ValueSegment& seg, size_t rows,
                std::vector<size_t>* hashes) {
  using Rep = ValueSegment::Rep;
  auto fold = [&](auto cell_hash) {
    for (size_t r = 0; r < rows; ++r) {
      size_t& h = (*hashes)[r];
      h ^= seg.IsNull(r) ? Value::HashNull() : cell_hash(r);
      h *= 1099511628211ull;
    }
  };
  switch (seg.rep()) {
    case Rep::kBool:
      fold([&](size_t r) { return Value::HashBool(seg.bools()[r] != 0); });
      break;
    case Rep::kInt64:
      fold([&](size_t r) { return Value::HashInt(seg.ints()[r]); });
      break;
    case Rep::kDouble:
      fold([&](size_t r) { return Value::HashDouble(seg.doubles()[r]); });
      break;
    case Rep::kString:
      fold([&](size_t r) { return Value::HashString(seg.strings()[r]); });
      break;
    case Rep::kDate:
      fold([&](size_t r) { return Value::HashDate(seg.dates()[r]); });
      break;
    case Rep::kMixed:
      break;  // Never stored.
  }
}

/// Value::Compare's numeric equality: Sign(a - b) == 0.
bool SameNumber(double a, double b) {
  const double d = a - b;
  return !(d < 0) && !(d > 0);
}

/// seg.At(r).SameAs(value) for a stored segment, without building the
/// cell's Value.
bool CellSameAs(const ValueSegment& seg, size_t r, const Value& value) {
  using Rep = ValueSegment::Rep;
  if (seg.IsNull(r) || value.is_null()) {
    return seg.IsNull(r) && value.is_null();
  }
  switch (seg.rep()) {
    case Rep::kBool:
      return value.is_bool() && (seg.bools()[r] != 0) == value.as_bool();
    case Rep::kInt64:
      if (value.is_int()) return seg.ints()[r] == value.as_int();
      return value.is_double() &&
             SameNumber(static_cast<double>(seg.ints()[r]), value.as_double());
    case Rep::kDouble:
      return value.is_numeric() &&
             SameNumber(seg.doubles()[r], value.as_double());
    case Rep::kString:
      return value.is_string() && seg.strings()[r] == value.as_string();
    case Rep::kDate:
      return value.is_date() && seg.dates()[r] == value.as_date_days();
    case Rep::kMixed:
      break;  // Never stored.
  }
  return false;
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  pk_positions_ = schema_.PrimaryKeyIndexes();
  for (const Column& c : schema_.columns()) pending_.emplace_back(c.type);
}

size_t Table::PartRows(size_t part) const {
  return part < chunks_.size() ? chunks_[part]->num_rows() : pending_rows_;
}

const ValueSegment& Table::Segment(size_t part, size_t column) const {
  return part < chunks_.size() ? chunks_[part]->segment(column)
                               : pending_[column].segment();
}

std::vector<Chunk> Table::ScanChunks(int64_t chunk_size) const {
  const size_t step = static_cast<size_t>(std::max<int64_t>(1, chunk_size));
  std::vector<Chunk> stored;
  stored.reserve(num_parts());
  for (const auto& chunk : chunks_) stored.push_back(*chunk);
  if (pending_rows_ > 0) {
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(pending_.size());
    for (const ColumnBuilder& column : pending_) {
      segments.push_back(std::make_shared<const ValueSegment>(
          column.segment()));
    }
    stored.emplace_back(pending_rows_, std::move(segments));
  }
  if (step >= kChunkRows) return stored;

  // Below the stored size: copy, cutting at multiples of `step`.
  std::vector<ChunkRow> rows;
  rows.reserve(num_rows_);
  for (const Chunk& chunk : stored) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      rows.push_back({&chunk, static_cast<uint32_t>(r)});
    }
  }
  std::vector<Chunk> out;
  out.reserve(num_rows_ / step + 1);
  for (size_t begin = 0; begin < rows.size(); begin += step) {
    const std::vector<ChunkRow> slice(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() +
            static_cast<std::ptrdiff_t>(std::min(rows.size(), begin + step)));
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      segments.push_back(
          std::make_shared<const ValueSegment>(GatherColumn(slice, c)));
    }
    out.emplace_back(slice.size(), std::move(segments));
  }
  return out;
}

std::vector<Row> Table::rows() const {
  std::vector<Row> out;
  out.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) out.push_back(row(r));
  return out;
}

Row Table::row(size_t r) const {
  const size_t part = r / kChunkRows;
  const size_t offset = r % kChunkRows;
  Row out;
  out.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    out.push_back(Segment(part, c).At(offset));
  }
  return out;
}

std::unique_ptr<Table> Table::Clone() const {
  auto copy = std::make_unique<Table>(schema_);
  copy->chunks_ = chunks_;
  copy->pending_ = pending_;
  copy->pending_rows_ = pending_rows_;
  copy->num_rows_ = num_rows_;
  copy->indexes_ = indexes_;
  copy->pk_keys_ = pk_keys_;
  copy->pk_positions_ = pk_positions_;
  return copy;
}

uint64_t Table::Fingerprint() const {
  uint64_t h = MixString(1469598103934665603ULL, schema_.name());
  for (const Column& c : schema_.columns()) {
    h = MixString(h, c.name);
    h = Mix(h, static_cast<uint64_t>(c.type));
    h = Mix(h, c.nullable ? 1 : 0);
  }
  for (const std::string& k : schema_.primary_key()) h = MixString(h, k);
  for (const ForeignKey& fk : schema_.foreign_keys()) {
    for (const std::string& c : fk.columns) h = MixString(h, c);
    h = MixString(h, fk.referenced_table);
    for (const std::string& c : fk.referenced_columns) h = MixString(h, c);
  }
  h = Mix(h, num_rows_);
  // HashRow of every row, column at a time.
  std::vector<size_t> row_hashes;
  for (size_t part = 0; part < num_parts(); ++part) {
    const size_t rows = PartRows(part);
    row_hashes.assign(rows, 14695981039346656037ull);
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      HashColumn(Segment(part, c), rows, &row_hashes);
    }
    for (size_t row_hash : row_hashes) h = Mix(h, row_hash);
  }
  return h;
}

size_t Table::MemoryBytes(
    std::unordered_set<const ValueSegment*>* counted) const {
  size_t bytes = pk_keys_.MemoryBytes();
  for (const Index& index : indexes_) {
    bytes += index.keys.MemoryBytes() + index.rows.MemoryBytes();
  }
  for (const ColumnBuilder& column : pending_) {
    bytes += column.segment().MemoryBytes();
  }
  for (const auto& chunk : chunks_) {
    for (const Chunk::SegmentPtr& seg : chunk->segments()) {
      if (counted != nullptr && !counted->insert(seg.get()).second) continue;
      bytes += seg->MemoryBytes();
    }
  }
  return bytes;
}

Status Table::ValidateAndCoerce(Row* row) const {
  if (row->size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row->size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table '" + name() +
        "'");
  }
  for (size_t i = 0; i < row->size(); ++i) {
    const Column& col = schema_.columns()[i];
    Value& cell = (*row)[i];
    if (cell.is_null()) {
      if (!col.nullable) return NullInNotNull(col, name());
      continue;
    }
    if (!CoerceInto(col.type, &cell)) return TypeMismatch(col, cell, name());
  }
  return Status::OK();
}

void Table::IndexRow(size_t r) {
  if (indexes_.empty()) return;
  const size_t part = r / kChunkRows;
  const size_t offset = r % kChunkRows;
  RowKey key;
  for (Index& index : indexes_) {
    key.Clear();
    for (size_t p : index.positions) key.Add(Segment(part, p), offset);
    index.rows.Append(index.keys.Insert(key.bytes()).first);
  }
}

void Table::Unseal() {
  if (pending_rows_ > 0 || chunks_.empty()) return;
  const Chunk& last = *chunks_.back();
  if (last.num_rows() == kChunkRows) return;
  for (size_t c = 0; c < pending_.size(); ++c) {
    pending_[c] = ColumnBuilder(last.segment(c));
  }
  pending_rows_ = last.num_rows();
  chunks_.pop_back();
}

void Table::Seal() {
  if (pending_rows_ == 0) return;
  std::vector<Chunk::SegmentPtr> segments;
  segments.reserve(pending_.size());
  for (ColumnBuilder& column : pending_) {
    segments.push_back(std::make_shared<const ValueSegment>(column.Finish()));
  }
  chunks_.push_back(
      std::make_shared<const Chunk>(pending_rows_, std::move(segments)));
  pending_rows_ = 0;
}

void Table::ReplaceSegments(
    size_t part, std::vector<std::unique_ptr<ColumnBuilder>>* segments) {
  const Chunk& old = *chunks_[part];
  std::vector<Chunk::SegmentPtr> merged = old.segments();
  for (size_t c = 0; c < merged.size(); ++c) {
    std::unique_ptr<ColumnBuilder>& fresh = (*segments)[c];
    if (fresh == nullptr) continue;
    merged[c] = std::make_shared<const ValueSegment>(fresh->Finish());
    fresh.reset();
  }
  chunks_[part] =
      std::make_shared<const Chunk>(old.num_rows(), std::move(merged));
}

Status Table::Insert(Row row) {
  QUARRY_RETURN_NOT_OK(ValidateAndCoerce(&row));
  if (!pk_positions_.empty()) {
    RowKey key;
    key.Set(row, pk_positions_);
    if (!pk_keys_.Insert(key.bytes()).second) {
      return Status::AlreadyExists("duplicate primary key in table '" +
                                   name() + "'");
    }
  }
  Unseal();
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c].is_null()) {
      pending_[c].AppendNull();
    } else {
      pending_[c].Append(row[c]);
    }
  }
  ++pending_rows_;
  ++num_rows_;
  IndexRow(num_rows_ - 1);
  if (pending_rows_ == kChunkRows) Seal();
  return Status::OK();
}

Status Table::InsertAll(std::vector<Row> rows) {
  Status status = Status::OK();
  for (Row& row : rows) {
    status = Insert(std::move(row));
    if (!status.ok()) break;
  }
  Seal();
  return status;
}

Status Table::AddColumn(Column column) {
  if (!column.nullable) {
    return Status::InvalidArgument(
        "cannot add NOT NULL column '" + column.name + "' to table '" +
        name() + "' (existing rows would violate it)");
  }
  const DataType type = column.type;
  QUARRY_RETURN_NOT_OK(schema_.AddColumn(std::move(column)));
  // Every chunk gets an all-NULL segment; full chunks share one.
  auto nulls = [type](size_t rows) {
    ColumnBuilder b(type);
    for (size_t r = 0; r < rows; ++r) b.AppendNull();
    return std::make_shared<const ValueSegment>(b.Finish());
  };
  Chunk::SegmentPtr full;
  for (auto& chunk : chunks_) {
    Chunk::SegmentPtr seg;
    if (chunk->num_rows() == kChunkRows) {
      if (full == nullptr) full = nulls(kChunkRows);
      seg = full;
    } else {
      seg = nulls(chunk->num_rows());
    }
    std::vector<Chunk::SegmentPtr> segments = chunk->segments();
    segments.push_back(std::move(seg));
    chunk = std::make_shared<const Chunk>(chunk->num_rows(),
                                          std::move(segments));
  }
  pending_.emplace_back(type);
  for (size_t r = 0; r < pending_rows_; ++r) pending_.back().AppendNull();
  return Status::OK();
}

Status Table::CreateIndex(const std::vector<std::string>& columns) {
  Index index;
  index.columns = columns;
  for (const std::string& c : columns) {
    auto pos = schema_.ColumnIndex(c);
    if (!pos.has_value()) {
      return Status::NotFound("index column '" + c + "' in table '" + name() +
                              "'");
    }
    index.positions.push_back(*pos);
  }
  RowKey key;
  for (size_t part = 0; part < num_parts(); ++part) {
    for (size_t r = 0; r < PartRows(part); ++r) {
      key.Clear();
      for (size_t p : index.positions) key.Add(Segment(part, p), r);
      index.rows.Append(index.keys.Insert(key.bytes()).first);
    }
  }
  // Replace an existing index over the same columns.
  for (Index& existing : indexes_) {
    if (existing.columns == columns) {
      existing = std::move(index);
      return Status::OK();
    }
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

bool Table::HasIndex(const std::vector<std::string>& columns) const {
  for (const Index& index : indexes_) {
    if (index.columns == columns) return true;
  }
  return false;
}

Result<std::vector<size_t>> Table::IndexLookup(
    const std::vector<std::string>& columns, const Row& key) const {
  for (const Index& index : indexes_) {
    if (index.columns != columns) continue;
    RowKey encoded;
    for (const Value& v : key) encoded.Add(v);
    std::vector<size_t> out;
    index.rows.ForEach(index.keys.Find(encoded.bytes()),
                       [&out](uint32_t row) { out.push_back(row); });
    return out;
  }
  return Status::NotFound("no index over the requested columns in table '" +
                          name() + "'");
}

std::vector<size_t> Table::ScanEquals(const std::string& column,
                                      const Value& value) const {
  std::vector<size_t> out;
  auto pos = schema_.ColumnIndex(column);
  if (!pos.has_value()) return out;
  for (size_t part = 0; part < num_parts(); ++part) {
    const ValueSegment& seg = Segment(part, *pos);
    for (size_t r = 0; r < PartRows(part); ++r) {
      if (CellSameAs(seg, r, value)) out.push_back(part * kChunkRows + r);
    }
  }
  return out;
}

Status Table::CheckUpdatable(size_t column) const {
  for (size_t p : pk_positions_) {
    if (p == column) {
      return Status::InvalidArgument("cannot update primary-key column in '" +
                                     name() + "'");
    }
  }
  for (const Index& index : indexes_) {
    for (size_t p : index.positions) {
      if (p == column) {
        return Status::InvalidArgument("cannot update indexed column in '" +
                                       name() + "'");
      }
    }
  }
  return Status::OK();
}

Status Table::CheckCellUpdate(size_t column, Value* value) const {
  QUARRY_RETURN_NOT_OK(CheckUpdatable(column));
  const Column& col = schema_.columns()[column];
  if (value->is_null()) {
    if (!col.nullable) return NullInNotNull(col, name());
  } else if (!CoerceInto(col.type, value)) {
    return Status::InvalidArgument("type mismatch updating column '" +
                                   col.name + "' of '" + name() + "'");
  }
  return Status::OK();
}

Status Table::SetCell(size_t row, size_t column, Value value) {
  if (row >= num_rows_) {
    return Status::InvalidArgument("row index out of range in table '" +
                                   name() + "'");
  }
  if (column >= schema_.num_columns()) {
    return Status::InvalidArgument("column index out of range in table '" +
                                   name() + "'");
  }
  QUARRY_RETURN_NOT_OK(CheckCellUpdate(column, &value));
  const size_t part = row / kChunkRows;
  const size_t offset = row % kChunkRows;
  if (part == chunks_.size()) {
    pending_[column].Set(offset, value);
    return Status::OK();
  }
  std::vector<std::unique_ptr<ColumnBuilder>> fresh(schema_.num_columns());
  fresh[column] = std::make_unique<ColumnBuilder>(Segment(part, column));
  fresh[column]->Set(offset, value);
  ReplaceSegments(part, &fresh);
  return Status::OK();
}

void Table::Truncate() {
  chunks_.clear();
  for (size_t c = 0; c < pending_.size(); ++c) {
    pending_[c] = ColumnBuilder(schema_.columns()[c].type);
  }
  pending_rows_ = 0;
  num_rows_ = 0;
  pk_keys_.Clear();
  for (Index& index : indexes_) {
    index.keys.Clear();
    index.rows.Clear();
  }
}

// --- TableWriter -------------------------------------------------------------

TableWriter::TableWriter(Table* table, std::vector<int> sources,
                         std::vector<size_t> keys)
    : table_(table), sources_(std::move(sources)), keys_(std::move(keys)) {
  if (!keys_.empty()) {
    std::vector<size_t> sorted_keys = keys_;
    std::vector<size_t> sorted_pk = table_->pk_positions_;
    std::sort(sorted_keys.begin(), sorted_keys.end());
    std::sort(sorted_pk.begin(), sorted_pk.end());
    on_pk_ = sorted_keys == sorted_pk;
    if (!on_pk_) {
      // The first stored row with each key.
      for (size_t part = 0; part < table_->num_parts(); ++part) {
        for (size_t r = 0; r < table_->PartRows(part); ++r) {
          key_.Clear();
          for (size_t k : keys_) key_.Add(table_->Segment(part, k), r);
          if (merge_keys_.Insert(key_.bytes()).second) {
            first_rows_.push_back(part * Table::kChunkRows + r);
          }
        }
      }
    }
  }
  // The rows of a short last chunk come back into pending rows for the
  // whole load: new rows extend them, and a merge into one of them writes
  // there directly.
  table_->Unseal();
}

TableWriter::~TableWriter() { Finish(); }

void TableWriter::PlanChunk(const Chunk& chunk) {
  const std::vector<Column>& columns = table_->schema_.columns();
  plans_.assign(columns.size(), Plan{});
  needs_check_ = false;
  for (size_t c = 0; c < columns.size(); ++c) {
    Plan& plan = plans_[c];
    const Column& col = columns[c];
    if (sources_[c] >= 0) {
      plan.source = &chunk.segment(static_cast<size_t>(sources_[c]));
      const ValueSegment::Rep rep = plan.source->rep();
      plan.typed = rep == RepOf(col.type) ||
                   (rep == ValueSegment::Rep::kInt64 &&
                    col.type == DataType::kDouble);
    }
    if ((plan.source != nullptr && !plan.typed) ||
        (!col.nullable &&
         (plan.source == nullptr || plan.source->has_nulls()))) {
      needs_check_ = true;
    }
  }
}

bool TableWriter::BuildKey(const std::vector<size_t>& columns,
                           uint32_t phys) {
  key_.Clear();
  for (size_t c : columns) {
    const Plan& plan = plans_[c];
    const DataType type = table_->schema_.columns()[c].type;
    if (plan.source == nullptr) {
      key_.Add(Value::Null());
    } else if (plan.typed) {
      key_.AddAs(*plan.source, phys, type);
    } else {
      Value v = plan.source->At(phys);
      if (!v.is_null() && !CoerceInto(type, &v)) return false;
      key_.Add(v);
    }
  }
  return true;
}

Status TableWriter::ValidateRow(uint32_t phys) const {
  const std::vector<Column>& columns = table_->schema_.columns();
  for (size_t c = 0; c < columns.size(); ++c) {
    const Plan& plan = plans_[c];
    const Column& col = columns[c];
    if (plan.source == nullptr || plan.source->IsNull(phys)) {
      if (!col.nullable) return NullInNotNull(col, table_->name());
      continue;
    }
    if (!plan.typed) {
      Value v = plan.source->At(phys);
      if (!CoerceInto(col.type, &v)) {
        return TypeMismatch(col, v, table_->name());
      }
    }
  }
  return Status::OK();
}

void TableWriter::Flush() {
  Table& t = *table_;
  const std::vector<Column>& columns = t.schema_.columns();
  size_t done = 0;
  while (done < staged_.size()) {
    const size_t n =
        std::min(Table::kChunkRows - t.pending_rows_, staged_.size() - done);
    const uint32_t* rows = staged_.data() + done;
    for (size_t c = 0; c < columns.size(); ++c) {
      const Plan& plan = plans_[c];
      ColumnBuilder& out = t.pending_[c];
      if (plan.typed) {
        out.AppendRows(*plan.source, rows, n);
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        if (plan.source == nullptr || plan.source->IsNull(rows[i])) {
          out.AppendNull();
          continue;
        }
        Value v = plan.source->At(rows[i]);
        CoerceInto(columns[c].type, &v);  // ValidateRow checked it.
        out.Append(v);
      }
    }
    t.pending_rows_ += n;
    t.num_rows_ += n;
    for (size_t r = t.num_rows_ - n; r < t.num_rows_; ++r) t.IndexRow(r);
    if (t.pending_rows_ == Table::kChunkRows) t.Seal();
    done += n;
  }
  staged_.clear();
}

Status TableWriter::Merge(size_t target, uint32_t phys) {
  Table& t = *table_;
  if (target >= t.num_rows_) Flush();  // A row staged from this chunk.
  const std::vector<Column>& columns = t.schema_.columns();
  const size_t part = target / Table::kChunkRows;
  const size_t offset = target % Table::kChunkRows;
  const bool pending = part == t.chunks_.size();
  copies_.resize(t.chunks_.size() * columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    const Plan& plan = plans_[c];
    if (plan.source == nullptr || plan.source->IsNull(phys)) continue;
    std::unique_ptr<ColumnBuilder>* copy =
        pending ? nullptr : &copies_[part * columns.size() + c];
    const ValueSegment& stored = pending ? t.pending_[c].segment()
                                 : *copy != nullptr
                                     ? (*copy)->segment()
                                     : t.chunks_[part]->segment(c);
    if (!stored.IsNull(offset)) continue;
    // SetCell's checks; a typed source already holds the column's type.
    Value v;
    if (plan.typed) {
      QUARRY_RETURN_NOT_OK(t.CheckUpdatable(c));
    } else {
      v = plan.source->At(phys);
      QUARRY_RETURN_NOT_OK(t.CheckCellUpdate(c, &v));
    }
    ColumnBuilder* out = &t.pending_[c];
    if (!pending) {
      if (*copy == nullptr) {
        *copy = std::make_unique<ColumnBuilder>(stored);
      }
      out = copy->get();
    }
    if (plan.typed) {
      out->SetFrom(offset, *plan.source, phys);
    } else {
      out->Set(offset, v);
    }
  }
  return Status::OK();
}

Status TableWriter::Append(const Chunk& chunk, int64_t* written) {
  Table& t = *table_;
  PlanChunk(chunk);
  const bool keyed = !keys_.empty();
  const bool has_pk = !t.pk_positions_.empty();
  KeyIndex& merge_keys = on_pk_ ? t.pk_keys_ : merge_keys_;
  const std::vector<size_t>& merge_columns = on_pk_ ? t.pk_positions_ : keys_;
  Status status = Status::OK();
  for (size_t i = 0; i < chunk.num_rows() && status.ok(); ++i) {
    const uint32_t phys = chunk.PhysicalRow(i);
    bool interned = false;
    if (keyed && BuildKey(merge_columns, phys)) {
      auto [id, inserted] = merge_keys.Insert(key_.bytes());
      if (!inserted) {
        status = Merge(on_pk_ ? id : first_rows_[id], phys);
        continue;
      }
      interned = true;
    }
    if (needs_check_) status = ValidateRow(phys);
    if (status.ok() && has_pk && !on_pk_) {
      BuildKey(t.pk_positions_, phys);
      if (!t.pk_keys_.Insert(key_.bytes()).second) {
        status = Status::AlreadyExists("duplicate primary key in table '" +
                                       t.name() + "'");
      }
    }
    if (!status.ok()) {
      if (interned) merge_keys.EraseLast();
      break;
    }
    if (keyed && !on_pk_) first_rows_.push_back(t.num_rows_ + staged_.size());
    staged_.push_back(phys);
    ++*written;
  }
  Flush();
  return status;
}

void TableWriter::Finish() {
  if (finished_) return;
  finished_ = true;
  Table& t = *table_;
  const size_t columns = t.schema_.num_columns();
  for (size_t part = 0; part < t.chunks_.size(); ++part) {
    if (columns == 0 || (part + 1) * columns > copies_.size()) break;
    auto first = copies_.begin() + static_cast<std::ptrdiff_t>(part * columns);
    if (std::all_of(first, first + static_cast<std::ptrdiff_t>(columns),
                    [](const auto& copy) { return copy == nullptr; })) {
      continue;
    }
    std::vector<std::unique_ptr<ColumnBuilder>> fresh(
        std::make_move_iterator(first),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(columns)));
    t.ReplaceSegments(part, &fresh);
  }
  copies_.clear();
  t.Seal();
}

}  // namespace quarry::storage
