#ifndef QUARRY_STORAGE_DATABASE_H_
#define QUARRY_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace quarry::storage {

/// \brief A catalog of tables — the embedded stand-in for the PostgreSQL
/// instance the Quarry paper deploys MD schemas to.
class Database {
 public:
  Database() = default;
  explicit Database(std::string name) : name_(std::move(name)) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Creates a table; referenced FK tables must already exist.
  Result<Table*> CreateTable(TableSchema schema);

  Status DropTable(const std::string& name);

  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  /// Table names in lexicographic order.
  std::vector<std::string> TableNames() const;

  size_t num_tables() const { return tables_.size(); }

  /// Total rows across all tables.
  size_t TotalRows() const;

  /// Verifies every foreign key: each referencing value combination must
  /// exist in the referenced table. Returns the first violation.
  Status CheckReferentialIntegrity() const;

  // -- recovery support (see docs/ROBUSTNESS.md) ----------------------------

  /// Copy of the whole catalog: every table's Clone, which shares its
  /// sealed chunks and copies its pending rows and key structures.
  std::unique_ptr<Database> Clone() const;

  /// Replaces (or inserts) one table wholesale, bypassing FK admission
  /// checks — only for restoring a Clone()d snapshot of one table.
  void RestoreTable(std::unique_ptr<Table> table);

  /// Removes a table without status or fault-injection accounting — only
  /// for recovery paths undoing a partially-applied mutation (a regular
  /// DropTable could itself draw an injected fault mid-rollback).
  void EraseTable(const std::string& name) { tables_.erase(name); }

  /// Bytes every table holds in memory (Table::MemoryBytes, same
  /// `counted` rule).
  size_t MemoryBytes(
      std::unordered_set<const ValueSegment*>* counted = nullptr) const;

  /// Deterministic content hash over every table's schema and rows. Equal
  /// state yields equal fingerprints, so rollback tests can assert the
  /// target is bit-identical to its pre-deploy snapshot.
  uint64_t Fingerprint() const;

 private:
  std::string name_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace quarry::storage

#endif  // QUARRY_STORAGE_DATABASE_H_
