#include "storage/table.h"

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

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  pk_positions_ = schema_.PrimaryKeyIndexes();
}

std::vector<Chunk> Table::ScanChunks(int64_t chunk_size) const {
  return ChunkRows(rows_, schema_.columns().size(), chunk_size);
}

std::unique_ptr<Table> Table::Clone() const {
  auto copy = std::make_unique<Table>(schema_);
  copy->rows_ = rows_;
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
  h = Mix(h, rows_.size());
  for (const Row& row : rows_) h = Mix(h, HashRow(row));
  return h;
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
      if (!col.nullable) {
        return Status::InvalidArgument("NULL in NOT NULL column '" +
                                       col.name + "' of '" + name() + "'");
      }
      continue;
    }
    QUARRY_ASSIGN_OR_RETURN(DataType actual, cell.type());
    if (actual == col.type) continue;
    // Lossless numeric widening / narrowing between INT and DOUBLE.
    if ((actual == DataType::kInt64 && col.type == DataType::kDouble) ||
        (actual == DataType::kDouble && col.type == DataType::kInt64)) {
      QUARRY_ASSIGN_OR_RETURN(cell, cell.CastTo(col.type));
      continue;
    }
    return Status::InvalidArgument(
        std::string("type mismatch in column '") + col.name + "' of '" +
        name() + "': expected " + DataTypeToString(col.type) + ", got " +
        DataTypeToString(actual));
  }
  return Status::OK();
}

Status Table::Insert(Row row) {
  QUARRY_RETURN_NOT_OK(ValidateAndCoerce(&row));
  RowKey key;
  if (!pk_positions_.empty()) {
    key.Set(row, pk_positions_);
    if (!pk_keys_.Insert(key.bytes()).second) {
      return Status::AlreadyExists("duplicate primary key in table '" +
                                   name() + "'");
    }
  }
  for (Index& index : indexes_) {
    key.Set(row, index.positions);
    index.rows.Append(index.keys.Insert(key.bytes()).first);
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Table::InsertAll(std::vector<Row> rows) {
  for (Row& row : rows) {
    QUARRY_RETURN_NOT_OK(Insert(std::move(row)));
  }
  return Status::OK();
}

Status Table::AddColumn(Column column) {
  if (!column.nullable) {
    return Status::InvalidArgument(
        "cannot add NOT NULL column '" + column.name + "' to table '" +
        name() + "' (existing rows would violate it)");
  }
  QUARRY_RETURN_NOT_OK(schema_.AddColumn(std::move(column)));
  for (Row& row : rows_) {
    row.push_back(Value::Null());
  }
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
  for (const Row& row : rows_) {
    key.Set(row, index.positions);
    index.rows.Append(index.keys.Insert(key.bytes()).first);
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
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i][*pos].SameAs(value)) out.push_back(i);
  }
  return out;
}

Status Table::SetCell(size_t row, size_t column, Value value) {
  if (row >= rows_.size()) {
    return Status::InvalidArgument("row index out of range in table '" +
                                   name() + "'");
  }
  if (column >= schema_.num_columns()) {
    return Status::InvalidArgument("column index out of range in table '" +
                                   name() + "'");
  }
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
  const Column& col = schema_.columns()[column];
  if (value.is_null()) {
    if (!col.nullable) {
      return Status::InvalidArgument("NULL in NOT NULL column '" + col.name +
                                     "' of '" + name() + "'");
    }
  } else {
    QUARRY_ASSIGN_OR_RETURN(DataType actual, value.type());
    if (actual != col.type) {
      if ((actual == DataType::kInt64 && col.type == DataType::kDouble) ||
          (actual == DataType::kDouble && col.type == DataType::kInt64)) {
        QUARRY_ASSIGN_OR_RETURN(value, value.CastTo(col.type));
      } else {
        return Status::InvalidArgument("type mismatch updating column '" +
                                       col.name + "' of '" + name() + "'");
      }
    }
  }
  rows_[row][column] = std::move(value);
  return Status::OK();
}

void Table::Truncate() {
  rows_.clear();
  pk_keys_.Clear();
  for (Index& index : indexes_) {
    index.keys.Clear();
    index.rows.Clear();
  }
}

}  // namespace quarry::storage
