#include "docstore/document_store.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quarry::docstore {

namespace {

namespace fs = std::filesystem;

constexpr const char* kManifestName = "MANIFEST.json";

void CountMutation(const char* op) {
  obs::MetricsRegistry::Instance()
      .counter("quarry_docstore_mutations_total",
               "Successful document mutations by operation",
               {{"op", op}})
      .Increment();
}

std::string WalFileName(int64_t generation) {
  return "wal." + std::to_string(generation) + ".log";
}

std::string CollectionFileName(const std::string& name, int64_t generation) {
  return name + "." + std::to_string(generation) + ".json";
}

/// Matches the generation-stamped artifacts this store writes
/// (`<name>.<gen>.json`, `wal.<gen>.log`) so the legacy loader never
/// mistakes an uncommitted snapshot file for a bare collection file.
bool IsGenerationStamped(const std::string& filename) {
  auto all_digits = [](std::string_view s) {
    return !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
      return std::isdigit(c) != 0;
    });
  };
  std::string_view f = filename;
  if (f.size() > 5 && f.substr(f.size() - 5) == ".json") {
    std::string_view stem = f.substr(0, f.size() - 5);
    size_t dot = stem.rfind('.');
    return dot != std::string_view::npos && all_digits(stem.substr(dot + 1));
  }
  if (f.size() > 4 && f.substr(0, 4) == "wal." &&
      f.substr(f.size() - 4) == ".log") {
    return all_digits(f.substr(4, f.size() - 8));
  }
  return false;
}

std::string CanonicalDir(const std::string& dir) {
  std::error_code ec;
  fs::path canonical = fs::weakly_canonical(dir, ec);
  return ec ? dir : canonical.string();
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path.string() + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    return Status::ExecutionError("read failed on '" + path.string() + "'");
  }
  return ss.str();
}

/// The committed snapshot a manifest describes.
struct Manifest {
  int64_t generation = 0;
  std::string wal_file;  ///< Empty when the snapshot carries no WAL.
  std::vector<std::pair<std::string, std::string>> collections;  // name,file
};

Result<Manifest> ParseManifest(const fs::path& path) {
  QUARRY_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  QUARRY_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  const json::Value* gen = doc.Find("generation");
  const json::Value* collections = doc.Find("collections");
  if (gen == nullptr || !gen->is_int() || collections == nullptr ||
      !collections->is_array()) {
    return Status::ParseError("manifest '" + path.string() +
                              "' lacks generation/collections");
  }
  Manifest manifest;
  manifest.generation = gen->as_int();
  const json::Value* wal = doc.Find("wal");
  if (wal != nullptr && wal->is_string()) manifest.wal_file = wal->as_string();
  for (const json::Value& entry : collections->as_array()) {
    const json::Value* name = entry.Find("name");
    const json::Value* file = entry.Find("file");
    if (name == nullptr || !name->is_string() || file == nullptr ||
        !file->is_string()) {
      return Status::ParseError("manifest '" + path.string() +
                                "' has a malformed collection entry");
    }
    manifest.collections.emplace_back(name->as_string(), file->as_string());
  }
  return manifest;
}

/// Next snapshot generation for `dir`: one past the committed manifest's,
/// or past any stamped leftover when the manifest is missing/corrupt (so a
/// recovering save never reuses the generation of orphan files).
int64_t NextGeneration(const std::string& dir) {
  int64_t max_gen = 0;
  auto manifest = ParseManifest(fs::path(dir) / kManifestName);
  if (manifest.ok()) {
    max_gen = manifest->generation;
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (!IsGenerationStamped(name)) continue;
    size_t dot_ext = name.rfind('.');
    size_t dot_gen = name.rfind('.', dot_ext - 1);
    int64_t gen = 0;
    if (name.substr(0, 4) == "wal." && name.substr(name.size() - 4) == ".log") {
      gen = std::atoll(name.substr(4, name.size() - 8).c_str());
    } else {
      gen = std::atoll(name.substr(dot_gen + 1, dot_ext - dot_gen - 1).c_str());
    }
    max_gen = std::max(max_gen, gen);
  }
  return max_gen + 1;
}

/// Sets a file that recovery cannot load aside as `<file>.quarantined`
/// (keeping the evidence for post-mortems) and records why.
void Quarantine(const fs::path& path, const Status& reason,
                RecoveryStats* stats) {
  std::error_code ec;
  fs::rename(path, path.string() + ".quarantined", ec);
  stats->quarantined.push_back(
      {path.filename().string(), reason.ToString()});
}

/// Parses one collection snapshot file into a fresh Collection. Any
/// failure (unreadable, not JSON, not an array, duplicate ids) rejects the
/// whole file so a torn or corrupt snapshot never half-loads.
Result<std::unique_ptr<Collection>> LoadCollectionFile(
    const fs::path& path, const std::string& collection_name) {
  QUARRY_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  QUARRY_ASSIGN_OR_RETURN(json::Value docs, json::Parse(text));
  if (!docs.is_array()) {
    return Status::ParseError("collection file '" + path.string() +
                              "' is not a JSON array");
  }
  auto collection = std::make_unique<Collection>(collection_name);
  for (json::Value& doc : docs.as_array()) {
    QUARRY_RETURN_NOT_OK(collection->Insert(std::move(doc)).status());
  }
  return collection;
}

/// Applies one replayed WAL record. Replay is idempotent: puts upsert,
/// deletes/drops of absent entries are fine — a crash between the snapshot
/// commit and the WAL rotation replays pre-snapshot records harmlessly.
Status ApplyWalRecord(DocumentStore* store, const std::string& payload) {
  QUARRY_ASSIGN_OR_RETURN(json::Value record, json::Parse(payload));
  std::string op = record.GetString("op");
  std::string collection = record.GetString("c");
  std::string id = record.GetString("id");
  if (op == "put") {
    const json::Value* doc = record.Find("doc");
    if (collection.empty() || id.empty() || doc == nullptr) {
      return Status::ParseError("malformed WAL put record");
    }
    return store->GetOrCreate(collection)->Upsert(id, *doc);
  }
  if (op == "del") {
    if (collection.empty() || id.empty()) {
      return Status::ParseError("malformed WAL del record");
    }
    Status removed = store->GetOrCreate(collection)->Remove(id);
    return removed.IsNotFound() ? Status::OK() : removed;
  }
  if (op == "newc") {
    if (collection.empty()) {
      return Status::ParseError("malformed WAL newc record");
    }
    store->GetOrCreate(collection);
    return Status::OK();
  }
  if (op == "dropc") {
    if (collection.empty()) {
      return Status::ParseError("malformed WAL dropc record");
    }
    Status dropped = store->Drop(collection);
    return dropped.IsNotFound() ? Status::OK() : dropped;
  }
  return Status::ParseError("unknown WAL op '" + op + "'");
}

}  // namespace

std::string RecoveryStats::ToString() const {
  std::ostringstream out;
  out << "recovery: manifest=" << (manifest_found ? "yes" : "no")
      << " snapshot_files=" << snapshot_files_loaded
      << " wal_replayed=" << wal_records_replayed
      << " torn_tail_bytes=" << wal_tail_bytes_discarded
      << " orphans_removed=" << orphan_files_removed
      << " quarantined=" << quarantined.size();
  for (const QuarantinedFile& q : quarantined) {
    out << " [" << q.file << ": " << q.reason << "]";
  }
  return out.str();
}

Status Collection::LogMutation(const char* op, const std::string& id,
                               const json::Value* document) {
  if (durability_ == nullptr || durability_->writer == nullptr) {
    return Status::OK();
  }
  json::Object record;
  record.emplace_back("op", json::Value(op));
  record.emplace_back("c", json::Value(name_));
  if (!id.empty()) record.emplace_back("id", json::Value(id));
  if (document != nullptr) record.emplace_back("doc", *document);
  std::string payload = json::Write(json::Value(std::move(record)));
  QUARRY_RETURN_NOT_OK(durability_->writer->Append(payload));
  return durability_->writer->Sync();
}

Result<std::string> Collection::Insert(json::Value document) {
  QUARRY_FAULT_POINT("docstore.collection.insert");
  if (!document.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  std::string id = document.GetString("_id");
  if (id.empty()) {
    // Skip ids already present so inserting into a reloaded collection
    // (whose counter restarted) never collides with persisted documents.
    do {
      id = name_ + "-" + std::to_string(next_id_++);
    } while (docs_.count(id) > 0);
    document.Set("_id", json::Value(id));
  }
  if (docs_.count(id) > 0) {
    return Status::AlreadyExists("document '" + id + "' in collection '" +
                                 name_ + "'");
  }
  // Write-ahead: the mutation is durable (or rejected) before it is
  // applied, so in-memory state never runs ahead of the log.
  QUARRY_RETURN_NOT_OK(LogMutation("put", id, &document));
  docs_.emplace(id, std::move(document));
  order_.push_back(id);
  CountMutation("insert");
  return id;
}

Result<json::Value> Collection::Get(const std::string& id) const {
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return Status::NotFound("document '" + id + "' in collection '" + name_ +
                            "'");
  }
  return it->second;
}

Status Collection::Upsert(const std::string& id, json::Value document) {
  QUARRY_FAULT_POINT("docstore.collection.upsert");
  if (!document.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  document.Set("_id", json::Value(id));
  QUARRY_RETURN_NOT_OK(LogMutation("put", id, &document));
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    docs_.emplace(id, std::move(document));
    order_.push_back(id);
  } else {
    it->second = std::move(document);
  }
  CountMutation("upsert");
  return Status::OK();
}

Status Collection::Remove(const std::string& id) {
  QUARRY_FAULT_POINT("docstore.collection.remove");
  if (docs_.count(id) == 0) {
    return Status::NotFound("document '" + id + "' in collection '" + name_ +
                            "'");
  }
  QUARRY_RETURN_NOT_OK(LogMutation("del", id, nullptr));
  docs_.erase(id);
  order_.erase(std::remove(order_.begin(), order_.end(), id), order_.end());
  CountMutation("remove");
  return Status::OK();
}

std::vector<json::Value> Collection::Find(const std::string& field,
                                          const json::Value& value) const {
  std::vector<json::Value> out;
  for (const std::string& id : order_) {
    const json::Value& doc = docs_.at(id);
    const json::Value* v = doc.Find(field);
    if (v != nullptr && *v == value) out.push_back(doc);
  }
  return out;
}

Collection* DocumentStore::GetOrCreate(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_.emplace(name, std::make_unique<Collection>(name)).first;
    if (durability_ != nullptr) {
      it->second->AttachDurability(durability_);
      // Best effort: GetOrCreate cannot report, and a lost record only
      // forgets a still-empty collection (the first put re-creates it).
      (void)it->second->LogMutation("newc", "", nullptr);
    }
  }
  return it->second.get();
}

Result<Collection*> DocumentStore::Get(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name + "'");
  }
  return it->second.get();
}

Result<const Collection*> DocumentStore::Get(const std::string& name) const {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name + "'");
  }
  return static_cast<const Collection*>(it->second.get());
}

Status DocumentStore::Drop(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name + "'");
  }
  QUARRY_RETURN_NOT_OK(it->second->LogMutation("dropc", "", nullptr));
  collections_.erase(it);
  return Status::OK();
}

void DocumentStore::DropIfEmpty(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end() || it->second->size() > 0) return;
  (void)it->second->LogMutation("dropc", "", nullptr);
  collections_.erase(it);
}

std::vector<std::string> DocumentStore::CollectionNames() const {
  std::vector<std::string> out;
  out.reserve(collections_.size());
  for (const auto& [name, c] : collections_) out.push_back(name);
  return out;
}

Status DocumentStore::SaveToDirectory(const std::string& dir) const {
  QUARRY_NAMED_SPAN(span, "docstore.checkpoint");
  QUARRY_SPAN_ATTR(span, "dir", dir);
  Timer checkpoint_timer;
  Status result = SaveToDirectoryImpl(dir);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  reg.histogram("quarry_docstore_checkpoint_micros",
                "Checkpoint (snapshot + WAL rotation) latency in "
                "microseconds")
      .Observe(checkpoint_timer.ElapsedMicros());
  if (result.ok()) {
    reg.counter("quarry_docstore_checkpoints_total",
                "Committed document-store checkpoints")
        .Increment();
  } else {
    QUARRY_SPAN_ATTR(span, "error", result.message());
  }
  return result;
}

Status DocumentStore::SaveToDirectoryImpl(const std::string& dir) const {
  QUARRY_FAULT_POINT("docstore.save");
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("directory '" + dir + "'");
  }
  const bool rotate_wal =
      durability_ != nullptr && CanonicalDir(dir) == durability_->dir;
  const int64_t generation = NextGeneration(dir);

  // 1. Write every collection to a generation-stamped file. The files are
  //    invisible to recovery until the manifest commits, so a crash here
  //    only leaves orphans behind.
  std::vector<std::pair<std::string, std::string>> entries;  // name, file
  for (const auto& [name, collection] : collections_) {
    json::Array docs;
    for (const std::string& id : collection->Ids()) {
      docs.push_back(*collection->Get(id));
    }
    std::string file = CollectionFileName(name, generation);
    QUARRY_RETURN_NOT_OK(
        wal::AtomicWriteFile((fs::path(dir) / file).string(),
                             json::Write(json::Value(std::move(docs)),
                                         /*pretty=*/true))
            .WithContext("snapshot of collection '" + name + "'"));
    entries.emplace_back(name, std::move(file));
  }

  // 2. Create the next WAL before the manifest references it, so the
  //    committed manifest never points at a missing log.
  std::unique_ptr<wal::Writer> next_writer;
  std::string wal_file;
  if (rotate_wal) {
    wal_file = WalFileName(generation);
    QUARRY_ASSIGN_OR_RETURN(
        next_writer,
        wal::Writer::Open((fs::path(dir) / wal_file).string()));
  }

  // 3. Commit: the manifest rename atomically flips recovery over to the
  //    new snapshot (+ empty WAL). Before it, the old snapshot and old WAL
  //    are untouched; after it, they are superseded.
  json::Object manifest;
  manifest.emplace_back("generation", json::Value(generation));
  if (rotate_wal) manifest.emplace_back("wal", json::Value(wal_file));
  json::Array collection_list;
  for (const auto& [name, file] : entries) {
    json::Object entry;
    entry.emplace_back("name", json::Value(name));
    entry.emplace_back("file", json::Value(file));
    collection_list.push_back(json::Value(std::move(entry)));
  }
  manifest.emplace_back("collections", json::Value(std::move(collection_list)));
  QUARRY_FAULT_POINT("docstore.snapshot.commit");
  QUARRY_RETURN_NOT_OK(
      wal::AtomicWriteFile((fs::path(dir) / kManifestName).string(),
                           json::Write(json::Value(std::move(manifest)),
                                       /*pretty=*/true))
          .WithContext("snapshot manifest commit"));

  if (rotate_wal) {
    durability_->writer = std::move(next_writer);
    durability_->generation = generation;
  }

  // 4. Cleanup (crash-safe: everything below is already superseded).
  //    Removes older-generation snapshots and WALs, tmp leftovers, and
  //    bare legacy collection files now covered by the manifest.
  std::set<std::string> keep;
  keep.insert(kManifestName);
  for (const auto& [name, file] : entries) keep.insert(file);
  if (rotate_wal) keep.insert(wal_file);
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (keep.count(name) > 0) continue;
    bool is_tmp = name.size() > 4 && name.substr(name.size() - 4) == ".tmp";
    bool is_legacy_json =
        name.size() > 5 && name.substr(name.size() - 5) == ".json";
    if (is_tmp || is_legacy_json || IsGenerationStamped(name)) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
    }
  }
  return Status::OK();
}

Status DocumentStore::EnableDurability(const std::string& dir) {
  if (durability_ != nullptr) {
    if (CanonicalDir(dir) == durability_->dir) {
      return SaveToDirectory(dir);  // re-checkpoint, keep the attachment
    }
    return Status::InvalidArgument("store is already durable on '" +
                                   durability_->dir + "'");
  }
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("directory '" + dir + "'");
  }
  durability_ = std::make_shared<DurabilityState>();
  durability_->dir = CanonicalDir(dir);
  Status checkpoint = SaveToDirectory(dir);
  if (!checkpoint.ok()) {
    durability_ = nullptr;  // stay plainly in-memory rather than half-durable
    return checkpoint.WithContext("enabling durability on '" + dir + "'");
  }
  for (const auto& [name, collection] : collections_) {
    collection->AttachDurability(durability_);
  }
  return Status::OK();
}

Result<DocumentStore> DocumentStore::Open(const std::string& dir,
                                          RecoveryStats* stats) {
  QUARRY_ASSIGN_OR_RETURN(DocumentStore store, LoadFromDirectory(dir, stats));
  QUARRY_RETURN_NOT_OK(store.EnableDurability(dir));
  return store;
}

DocumentStore DocumentStore::Clone() const {
  DocumentStore copy;
  for (const auto& [name, collection] : collections_) {
    copy.collections_.emplace(name,
                              std::make_unique<Collection>(*collection));
  }
  return copy;
}

void DocumentStore::RestoreFrom(const DocumentStore& snapshot) {
  collections_.clear();
  for (const auto& [name, collection] : snapshot.collections_) {
    collections_.emplace(name, std::make_unique<Collection>(*collection));
  }
  if (durability_ != nullptr) {
    for (const auto& [name, collection] : collections_) {
      collection->AttachDurability(durability_);
    }
    // Rollback must not fail on a disk error; a failed re-checkpoint means
    // recovery would see the pre-rollback state until the next successful
    // snapshot, which the caller's next checkpoint repairs.
    (void)SaveToDirectory(durability_->dir);
  }
}

uint64_t DocumentStore::Fingerprint() const {
  std::hash<std::string> hash;
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  for (const auto& [name, collection] : collections_) {
    mix(hash(name));
    for (const std::string& id : collection->Ids()) {
      mix(hash(id));
      mix(hash(json::Write(*collection->Get(id))));
    }
  }
  return h;
}

Result<DocumentStore> DocumentStore::LoadFromDirectory(
    const std::string& dir) {
  return LoadFromDirectory(dir, nullptr);
}

Result<DocumentStore> DocumentStore::LoadFromDirectory(const std::string& dir,
                                                       RecoveryStats* stats) {
  QUARRY_NAMED_SPAN(span, "docstore.recover");
  QUARRY_SPAN_ATTR(span, "dir", dir);
  Timer recovery_timer;
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  Result<DocumentStore> result = LoadFromDirectoryImpl(dir, stats);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  reg.counter("quarry_docstore_recoveries_total",
              "Document-store loads from disk (crash recovery included)")
      .Increment();
  reg.histogram("quarry_docstore_recovery_micros",
                "Document-store recovery latency in microseconds")
      .Observe(recovery_timer.ElapsedMicros());
  reg.counter("quarry_docstore_wal_records_replayed_total",
              "WAL records replayed on top of snapshots during recovery")
      .Increment(stats->wal_records_replayed);
  reg.counter("quarry_docstore_files_quarantined_total",
              "Damaged files quarantined during recovery")
      .Increment(static_cast<int64_t>(stats->quarantined.size()));
  QUARRY_SPAN_ATTR(span, "wal_records_replayed",
                   stats->wal_records_replayed);
  QUARRY_SPAN_ATTR(span, "snapshot_files_loaded",
                   stats->snapshot_files_loaded);
  return result;
}

Result<DocumentStore> DocumentStore::LoadFromDirectoryImpl(
    const std::string& dir, RecoveryStats* stats) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("directory '" + dir + "'");
  }
  *stats = RecoveryStats{};
  DocumentStore store;

  const fs::path manifest_path = fs::path(dir) / kManifestName;
  Manifest manifest;
  bool use_manifest = false;
  if (fs::exists(manifest_path, ec)) {
    auto parsed = ParseManifest(manifest_path);
    if (parsed.ok()) {
      manifest = std::move(*parsed);
      use_manifest = true;
      stats->manifest_found = true;
    } else {
      // A torn manifest cannot happen (atomic rename); a corrupt one is
      // damage. Quarantine it and fall back to scanning bare files.
      Quarantine(manifest_path, parsed.status(), stats);
    }
  }

  if (use_manifest) {
    for (const auto& [name, file] : manifest.collections) {
      const fs::path path = fs::path(dir) / file;
      auto collection = LoadCollectionFile(path, name);
      if (!collection.ok()) {
        Quarantine(path, collection.status(), stats);
        continue;
      }
      store.collections_[name] = std::move(*collection);
      ++stats->snapshot_files_loaded;
    }
    if (!manifest.wal_file.empty()) {
      const fs::path wal_path = fs::path(dir) / manifest.wal_file;
      auto log = wal::ReadLog(wal_path.string());
      if (log.status().IsParseError()) {
        Quarantine(wal_path, log.status(), stats);
      } else if (log.ok()) {
        stats->wal_torn_tail = log->torn_tail;
        stats->wal_tail_bytes_discarded = log->tail_bytes_discarded;
        for (const std::string& payload : log->records) {
          Status applied = ApplyWalRecord(&store, payload);
          if (!applied.ok()) {
            // A record that passed its CRC but does not apply means the
            // writer and reader disagree — stop replaying, keep what is
            // consistent, and report the rest.
            stats->quarantined.push_back(
                {manifest.wal_file,
                 applied.WithContext("WAL replay stopped").ToString()});
            break;
          }
          ++stats->wal_records_replayed;
        }
      }
      // A missing WAL (NotFound) is fine: rotation never committed and the
      // snapshot already contains everything.
    }
    // Clean up uncommitted leftovers from interrupted snapshots.
    std::set<std::string> keep{kManifestName};
    if (!manifest.wal_file.empty()) keep.insert(manifest.wal_file);
    for (const auto& [name, file] : manifest.collections) keep.insert(file);
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file(ec)) continue;
      std::string name = entry.path().filename().string();
      if (keep.count(name) > 0) continue;
      bool is_tmp = name.size() > 4 && name.substr(name.size() - 4) == ".tmp";
      if (is_tmp || IsGenerationStamped(name)) {
        std::error_code remove_ec;
        if (fs::remove(entry.path(), remove_ec) && !remove_ec) {
          ++stats->orphan_files_removed;
        }
      }
    }
    return store;
  }

  // Legacy layout: every bare `<name>.json` is a collection. Skip (and
  // report) files that are not valid collections instead of failing the
  // whole load — one corrupt collection must not take down the repository.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".json") continue;
    std::string filename = entry.path().filename().string();
    if (filename == kManifestName || IsGenerationStamped(filename)) continue;
    std::string name = entry.path().stem().string();
    auto collection = LoadCollectionFile(entry.path(), name);
    if (!collection.ok()) {
      Quarantine(entry.path(), collection.status(), stats);
      continue;
    }
    store.collections_[name] = std::move(*collection);
    ++stats->snapshot_files_loaded;
  }
  return store;
}

}  // namespace quarry::docstore
