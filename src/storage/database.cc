#include "storage/database.h"

#include <functional>

#include "common/fault_injection.h"
#include "storage/key.h"

namespace quarry::storage {

Result<Table*> Database::CreateTable(TableSchema schema) {
  QUARRY_FAULT_POINT("storage.database.create_table");
  if (tables_.count(schema.name()) > 0) {
    return Status::AlreadyExists("table '" + schema.name() + "'");
  }
  for (const ForeignKey& fk : schema.foreign_keys()) {
    auto it = tables_.find(fk.referenced_table);
    if (it == tables_.end()) {
      return Status::NotFound("referenced table '" + fk.referenced_table +
                              "' for foreign key of '" + schema.name() + "'");
    }
    for (const std::string& rc : fk.referenced_columns) {
      if (!it->second->schema().ColumnIndex(rc).has_value()) {
        return Status::NotFound("referenced column '" + rc + "' in table '" +
                                fk.referenced_table + "'");
      }
    }
  }
  std::string name = schema.name();
  auto table = std::make_unique<Table>(std::move(schema));
  Table* raw = table.get();
  tables_.emplace(std::move(name), std::move(table));
  return raw;
}

Status Database::DropTable(const std::string& name) {
  QUARRY_FAULT_POINT("storage.database.drop_table");
  if (tables_.erase(name) == 0) {
    return Status::NotFound("table '" + name + "'");
  }
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  return static_cast<const Table*>(it->second.get());
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->num_rows();
  return total;
}

std::unique_ptr<Database> Database::Clone() const {
  auto copy = std::make_unique<Database>(name_);
  for (const auto& [name, table] : tables_) {
    copy->tables_.emplace(name, table->Clone());
  }
  return copy;
}

void Database::RestoreTable(std::unique_ptr<Table> table) {
  std::string name = table->name();
  tables_[std::move(name)] = std::move(table);
}

size_t Database::MemoryBytes(
    std::unordered_set<const ValueSegment*>* counted) const {
  size_t bytes = 0;
  for (const auto& [name, table] : tables_) {
    bytes += table->MemoryBytes(counted);
  }
  return bytes;
}

uint64_t Database::Fingerprint() const {
  uint64_t h = std::hash<std::string>{}(name_);
  for (const auto& [name, table] : tables_) {
    h ^= 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2) + table->Fingerprint();
  }
  return h;
}

Status Database::CheckReferentialIntegrity() const {
  for (const auto& [name, table] : tables_) {
    for (const ForeignKey& fk : table->schema().foreign_keys()) {
      auto ref_it = tables_.find(fk.referenced_table);
      if (ref_it == tables_.end()) {
        return Status::NotFound("referenced table '" + fk.referenced_table +
                                "'");
      }
      const Table& ref = *ref_it->second;
      // Build the set of referenced keys once.
      std::vector<size_t> ref_positions;
      for (const std::string& c : fk.referenced_columns) {
        ref_positions.push_back(*ref.schema().ColumnIndex(c));
      }
      KeyIndex ref_keys;
      ChunkKeys keys;
      for (const Chunk& chunk : ref.ScanChunks(Table::kChunkRows)) {
        keys.Set(chunk, ref_positions);
        for (size_t r = 0; r < keys.size(); ++r) {
          ref_keys.Insert(keys.key(r), keys.hash(r));
        }
      }
      std::vector<size_t> positions;
      for (const std::string& c : fk.columns) {
        positions.push_back(*table->schema().ColumnIndex(c));
      }
      for (const Chunk& chunk : table->ScanChunks(Table::kChunkRows)) {
        keys.Set(chunk, positions);
        for (size_t r = 0; r < keys.size(); ++r) {
          if (keys.has_null(r)) continue;  // SQL: NULL FKs are not checked.
          if (ref_keys.Find(keys.key(r), keys.hash(r)) ==
              KeyIndex::kNotFound) {
            std::string key_text;
            for (size_t p : positions) {
              key_text += chunk.ValueAt(p, r).ToString() + ",";
            }
            return Status::ValidationError(
                "dangling foreign key (" + key_text + ") from '" + name +
                "' to '" + fk.referenced_table + "'");
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace quarry::storage
