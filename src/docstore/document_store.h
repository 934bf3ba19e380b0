#ifndef QUARRY_DOCSTORE_DOCUMENT_STORE_H_
#define QUARRY_DOCSTORE_DOCUMENT_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/wal.h"
#include "json/json.h"

namespace quarry::docstore {

/// A collection file (or the snapshot manifest) that startup recovery set
/// aside instead of crashing on (docs/ROBUSTNESS.md §6.3).
struct QuarantinedFile {
  std::string file;    ///< File name relative to the store directory.
  std::string reason;  ///< Why it could not be loaded.
};

/// \brief What startup recovery did (surfaced through core::Quarry).
struct RecoveryStats {
  bool manifest_found = false;       ///< Snapshot manifest was present.
  int64_t snapshot_files_loaded = 0;
  int64_t wal_records_replayed = 0;
  uint64_t wal_tail_bytes_discarded = 0;  ///< Torn-tail bytes dropped.
  bool wal_torn_tail = false;
  int64_t orphan_files_removed = 0;  ///< Uncommitted snapshot leftovers.
  std::vector<QuarantinedFile> quarantined;

  /// One-line structured report ("recovery: replayed=3 torn_bytes=17 ...").
  std::string ToString() const;
};

/// Durability attachment of a store: the directory, the current snapshot
/// generation and the open WAL writer. Shared (not copied) with every
/// collection so the attachment survives moves of the owning store;
/// Clone()d stores never inherit it.
struct DurabilityState {
  std::string dir;
  int64_t generation = 0;
  std::unique_ptr<wal::Writer> writer;
};

/// \brief A collection of JSON documents keyed by a string `_id`.
///
/// Mirrors the slice of MongoDB the Quarry paper's Communication & Metadata
/// layer uses: insert/get/upsert/remove plus equality queries over
/// top-level fields. Documents are stored in insertion order.
///
/// When the owning DocumentStore is durable, every mutation is appended to
/// the write-ahead log and fsynced *before* it is applied in memory, so an
/// acknowledged mutation is never lost and a failed append leaves the
/// in-memory state matching the durable state.
class Collection {
 public:
  explicit Collection(std::string name) : name_(std::move(name)) {}

  /// Copies the documents but never the durability attachment — a copy
  /// (Clone/RestoreFrom snapshots) must not write to the original's WAL.
  Collection(const Collection& other)
      : name_(other.name_),
        docs_(other.docs_),
        order_(other.order_),
        next_id_(other.next_id_) {}
  Collection& operator=(const Collection&) = delete;

  const std::string& name() const { return name_; }
  size_t size() const { return order_.size(); }

  /// Inserts a document; assigns the first free sequential `_id` when
  /// absent (skipping ids already present, so inserting into a reloaded
  /// collection never collides). Returns the id. Fails when a document
  /// with the same id already exists.
  Result<std::string> Insert(json::Value document);

  /// Fetches a document by id.
  Result<json::Value> Get(const std::string& id) const;

  /// Inserts or replaces the document with the given id (the `_id` field
  /// is set to `id`).
  Status Upsert(const std::string& id, json::Value document);

  Status Remove(const std::string& id);

  bool Contains(const std::string& id) const { return docs_.count(id) > 0; }

  /// Documents whose top-level `field` equals `value`, in insertion order.
  std::vector<json::Value> Find(const std::string& field,
                                const json::Value& value) const;

  /// All ids in insertion order.
  std::vector<std::string> Ids() const { return order_; }

  /// Routes subsequent mutations through the store's WAL (pass nullptr to
  /// detach). Installed by DocumentStore; not part of the public surface.
  void AttachDurability(std::shared_ptr<DurabilityState> durability) {
    durability_ = std::move(durability);
  }

 private:
  friend class DocumentStore;  // logs collection create/drop records

  /// Appends one mutation record to the WAL and fsyncs it. A no-op when
  /// the collection is not durable.
  Status LogMutation(const char* op, const std::string& id,
                     const json::Value* document);

  std::string name_;
  std::map<std::string, json::Value> docs_;
  std::vector<std::string> order_;
  int64_t next_id_ = 1;
  std::shared_ptr<DurabilityState> durability_;
};

/// \brief A named set of collections with optional directory persistence —
/// the repo's MongoDB stand-in (see DESIGN.md §2).
///
/// Persistence is crash-safe (docs/ROBUSTNESS.md §6): SaveToDirectory
/// writes generation-stamped collection files and commits them with an
/// atomic manifest rename; EnableDurability additionally appends every
/// subsequent mutation to a CRC-framed WAL with an fsync per mutation, and
/// LoadFromDirectory replays that WAL over the last committed snapshot,
/// discarding a torn tail and quarantining corrupt collection files.
class DocumentStore {
 public:
  DocumentStore() = default;

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;
  DocumentStore(DocumentStore&&) = default;
  DocumentStore& operator=(DocumentStore&&) = default;

  /// Returns the collection, creating it when absent. On a durable store a
  /// creation is logged to the WAL best-effort (a failed append only loses
  /// a still-empty collection; the first put re-creates it on replay).
  Collection* GetOrCreate(const std::string& name);

  Result<Collection*> Get(const std::string& name);
  Result<const Collection*> Get(const std::string& name) const;

  Status Drop(const std::string& name);

  /// Removes `name` if it exists and holds no document: the undo of a
  /// GetOrCreate whose first write failed. Like GetOrCreate's, the record
  /// on a durable store is logged best-effort (a failed append leaves at
  /// most an empty collection for recovery to find), so the collection
  /// always leaves memory.
  void DropIfEmpty(const std::string& name);

  std::vector<std::string> CollectionNames() const;

  /// Atomically snapshots every collection into `dir` (which must exist):
  /// each collection goes to `<name>.<generation>.json`, and the snapshot
  /// becomes visible only when `MANIFEST.json` is atomically renamed into
  /// place. A crash at any point leaves the previous committed snapshot
  /// (plus WAL) fully intact. When the store is durable and `dir` is its
  /// durable directory, the WAL is rotated (truncated) as part of the
  /// commit and superseded snapshot/WAL files are removed.
  Status SaveToDirectory(const std::string& dir) const;

  /// Loads the committed snapshot of `dir` and replays its WAL over it.
  /// Corrupt or unparseable collection files are quarantined (renamed to
  /// `<file>.quarantined`) and reported via `stats` instead of failing the
  /// whole load; a torn WAL tail is discarded. Directories written by
  /// pre-manifest versions (bare `<name>.json` files) load as before.
  static Result<DocumentStore> LoadFromDirectory(const std::string& dir);
  static Result<DocumentStore> LoadFromDirectory(const std::string& dir,
                                                 RecoveryStats* stats);

  /// Makes this store durable on `dir`: checkpoints the current state
  /// (SaveToDirectory) and opens a fresh WAL that every subsequent
  /// mutation is appended + fsynced to before being applied.
  Status EnableDurability(const std::string& dir);

  /// Recovery + durability in one step: LoadFromDirectory(dir, stats)
  /// followed by EnableDurability(dir) — the standard way to open a
  /// crash-safe metadata directory.
  static Result<DocumentStore> Open(const std::string& dir,
                                    RecoveryStats* stats = nullptr);

  bool durable() const { return durability_ != nullptr; }
  const std::string& durable_dir() const {
    static const std::string kEmpty;
    return durability_ ? durability_->dir : kEmpty;
  }

  // -- recovery support (see docs/ROBUSTNESS.md) ----------------------------

  /// Deep copy of every collection. A serving build snapshots the metadata
  /// repository before it deploys and restores it if the publish fails.
  /// The copy is never durable, whatever the original was.
  DocumentStore Clone() const;

  /// Resets this store to the snapshot's state. A durable store re-checkpoints
  /// itself best-effort afterwards (rollback must not fail on a disk error;
  /// the next successful checkpoint repairs durability).
  void RestoreFrom(const DocumentStore& snapshot);

  /// Deterministic content hash over collection names, document order and
  /// serialized documents (rollback tests assert the restored store is
  /// bit-identical to its pre-deploy snapshot).
  uint64_t Fingerprint() const;

 private:
  static Result<DocumentStore> LoadFromDirectoryImpl(const std::string& dir,
                                                     RecoveryStats* stats);
  Status SaveToDirectoryImpl(const std::string& dir) const;

  std::map<std::string, std::unique_ptr<Collection>> collections_;
  /// Shared with every collection; contents are mutated through the
  /// shared_ptr even from const snapshot paths (WAL rotation).
  std::shared_ptr<DurabilityState> durability_;
};

}  // namespace quarry::docstore

#endif  // QUARRY_DOCSTORE_DOCUMENT_STORE_H_
