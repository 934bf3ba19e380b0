#ifndef QUARRY_STORAGE_GENERATION_STORE_H_
#define QUARRY_STORAGE_GENERATION_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/database.h"
#include "storage/generation_persist.h"

namespace quarry::obs {
class Counter;
class Gauge;
}  // namespace quarry::obs

namespace quarry::storage {

/// Counters of a GenerationStore, snapshotted under its lock
/// (docs/ROBUSTNESS.md §9). `active_pins` is exact at the moment of the
/// snapshot; the soak harness asserts it returns to zero once every reader
/// has released its pin.
struct GenerationStoreStats {
  uint64_t published = 0;         ///< Successful Publish() calls.
  uint64_t publish_failures = 0;  ///< Publishes refused at the fault site.
  uint64_t retired = 0;           ///< Generations the store released.
  uint64_t retires_deferred = 0;  ///< Retire-site faults (kept, retried later).
  int live_generations = 0;       ///< Generations the store still references.
  int active_pins = 0;            ///< Outstanding reader Pins.
};

/// \brief Generation-stamped snapshot store for the target warehouse
/// (docs/ROBUSTNESS.md §9) — the relational mirror of the docstore's
/// generation-stamped snapshot scheme (§6.3).
///
/// Every published generation is an immutable `Database` owned by a
/// shared_ptr. Writers build the *next* generation off to the side (an
/// empty scratch database obtained from BeginEmptyBuild, never reachable
/// by readers) and atomically publish it on success; a failed build —
/// lifecycle abort, operator fault, or an injected publish fault — simply
/// discards the scratch, so rollback is a pointer drop instead of a
/// full-database copy-back. Readers Acquire() a Pin: an RAII, refcounted
/// handle onto one generation that keeps serving that exact snapshot for
/// the whole query, no matter how many generations publish meanwhile.
///
/// Retention: the store itself references the current generation and the
/// previous one (the stale-read target, §9.3); anything older is retired —
/// dropped from the store, freed once the last Pin releases. The
/// `storage.generation.publish` and `storage.generation.retire` fault
/// sites let the chaos soak exercise both edges: a publish fault leaves
/// the store serving the old generation, a retire fault defers the release
/// onto a retry list drained by later publishes (or DrainDeferredRetires).
///
/// Thread-safety: every member is safe to call concurrently; publication
/// is a mutex-guarded pointer swap (microseconds, independent of data
/// size), and pinned databases are immutable by construction. The store
/// must outlive its scratch builders, but Pins may outlive the store.
class GenerationStore {
 public:
  /// \brief A pinned read snapshot: one generation, guaranteed immutable
  /// and alive for the Pin's lifetime. Move-only; releasing (destroying)
  /// the last Pin of a retired generation frees it.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { Release(); }
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    bool valid() const { return db_ != nullptr; }
    uint64_t generation() const { return generation_; }
    /// Requires valid().
    const Database& db() const { return *db_; }
    /// Opaque payload published atomically with the database (the core
    /// layer attaches the MD-schema snapshot the generation was deployed
    /// from). May be null for generations published without an annex.
    const std::shared_ptr<const void>& annex() const { return annex_; }

    /// Drops the reference; idempotent.
    void Release();

   private:
    friend class GenerationStore;
    std::shared_ptr<const Database> db_;
    std::shared_ptr<const void> annex_;
    std::shared_ptr<std::atomic<int>> pin_count_;  ///< Shared with the store.
    uint64_t generation_ = 0;
  };

  explicit GenerationStore(std::string name = "warehouse");

  const std::string& name() const { return name_; }

  /// Turns the serialized annex payload a generation was persisted with
  /// back into the opaque in-memory annex (the core layer parses the xMD
  /// document into an md::MdSchema). A failure quarantines the candidate
  /// generation during recovery, exactly like a CRC mismatch.
  using AnnexDecoder =
      std::function<Result<std::shared_ptr<const void>>(const std::string&)>;

  /// Makes the store crash-safe on `dir` (docs/ROBUSTNESS.md §10). Runs the
  /// startup recovery pass first — scanning `dir`, discarding torn
  /// publishes, quarantining corrupt generations and republishing the
  /// newest intact one so readers serve immediately at cold start — then
  /// switches every later Publish to the durable two-phase commit and every
  /// retire to on-disk directory deletion. `decoder` rebuilds the annex of
  /// the recovered generation; `stats` (nullable) reports what recovery
  /// found. If the store already holds an in-memory generation newer than
  /// anything on disk, that generation is checkpointed so the durable
  /// directory catches up. Idempotent against crashes: failing anywhere
  /// leaves the store non-durable and the directory recoverable, and the
  /// call can simply be retried.
  Status EnableDurability(const std::string& dir, AnnexDecoder decoder = {},
                          persist::GenerationRecoveryStats* stats = nullptr);

  bool durable() const;
  /// Empty until EnableDurability succeeds.
  std::string durable_dir() const;

  /// Id of the currently served generation; 0 when nothing has been
  /// published yet. Ids are dense and strictly increasing from 1.
  uint64_t current_generation() const;
  bool has_generation() const { return current_generation() != 0; }

  /// Pins the current generation. NotFound when nothing is published.
  Result<Pin> Acquire() const;

  /// Pins the *previous* generation (N-1) — the stale-read degradation
  /// target (docs/ROBUSTNESS.md §9.3). NotFound when fewer than two
  /// generations have been published or the previous one was retired.
  Result<Pin> AcquirePrevious() const;

  /// A fresh, empty scratch database named after the store: every deploy
  /// and refresh builds the next generation into one, then Publish()
  /// swaps it in.
  std::unique_ptr<Database> BeginEmptyBuild() const;

  /// Atomically publishes `next` as the new current generation and retires
  /// everything older than the new previous. Returns the new generation id.
  /// The `storage.generation.publish` fault site fires *before* any state
  /// changes: on failure the scratch is discarded, the store is untouched,
  /// and readers keep serving the old generation — the O(1) rollback the
  /// deployer's serve-while-refresh path relies on.
  ///
  /// Durable stores (EnableDurability) additionally run the two-phase
  /// on-disk commit *before* the in-memory pointer swap: the publish is
  /// acknowledged only once the generation's MANIFEST.json has landed, so
  /// a crash at any point either keeps the old generation (torn publish on
  /// disk, discarded by the next recovery) or recovers the new one intact —
  /// never a partial state. `annex_bytes` is the serialized form of
  /// `annex`, persisted alongside the tables so recovery can rebuild the
  /// annex through the AnnexDecoder; pass empty to persist no annex.
  ///
  /// Readers never block on a publish: the disk work happens outside the
  /// reader lock, which is only taken for the final pointer swap.
  Result<uint64_t> Publish(std::unique_ptr<Database> next,
                           std::shared_ptr<const void> annex = nullptr,
                           std::string_view annex_bytes = {});

  /// Content fingerprint recorded when `generation` was published (the
  /// soak harness checks every query result against exactly one of these).
  /// NotFound for ids that were never published.
  Result<uint64_t> PublishedFingerprint(uint64_t generation) const;

  /// Retries every deferred retire (a previous retire drew an injected
  /// fault). Returns how many generations were released. The chaos soak
  /// calls this after disabling injection to prove nothing leaks.
  int DrainDeferredRetires();

  GenerationStoreStats stats() const;

 private:
  struct Generation {
    uint64_t id = 0;
    std::shared_ptr<const Database> db;
    std::shared_ptr<const void> annex;
    /// Serialized annex, kept so EnableDurability can checkpoint a
    /// generation that was published before the store became durable.
    std::string annex_bytes;
  };

  Pin MakePin(const Generation& gen) const;
  /// Retires a batch of generations outside mu_ (on-disk deletion can be
  /// slow; readers must never wait on it). Honours the retire fault site
  /// and the durable directory removal; failures re-park the generation on
  /// the deferred list. Called with publish_mu_ held, mu_ NOT held.
  /// Returns how many generations were released.
  int RetireBatch(std::vector<Generation> gens);
  void UpdateGaugesLocked() const;
  /// Sets the memory gauge to the bytes the live generations hold, a
  /// segment two of them share counted once. Takes mu_ only to copy the
  /// generation pointers, so call it with mu_ NOT held.
  void UpdateMemoryGauge() const;

  std::string name_;
  /// Serializes publishers (Publish / DrainDeferredRetires /
  /// EnableDurability) end-to-end so the heavy disk I/O of a durable
  /// commit never runs concurrently with another publisher — while mu_,
  /// which readers' Acquire takes, is only ever held for pointer swaps.
  /// Lock order: publish_mu_ before mu_.
  mutable std::mutex publish_mu_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;                     ///< Guarded by mu_.
  Generation current_;                       ///< Guarded by mu_. id 0 = none.
  Generation previous_;                      ///< Guarded by mu_. id 0 = none.
  std::vector<Generation> deferred_retire_;  ///< Guarded by mu_.
  std::map<uint64_t, uint64_t> fingerprints_;  ///< Guarded by mu_.
  GenerationStoreStats stats_;               ///< Guarded by mu_ (not pins).
  bool durable_ = false;                     ///< Guarded by mu_.
  std::string durable_dir_;                  ///< Guarded by mu_.
  /// Shared with every Pin so releases stay safe even if the store is gone.
  std::shared_ptr<std::atomic<int>> pin_count_ =
      std::make_shared<std::atomic<int>>(0);

  // Cached metric instances (process-lifetime pointers, obs/metrics.h).
  obs::Counter* published_total_;
  obs::Counter* publish_failures_total_;
  obs::Counter* retired_total_;
  obs::Counter* retires_deferred_total_;
  obs::Gauge* live_gauge_;
  obs::Gauge* pins_gauge_;
  obs::Gauge* memory_gauge_;
};

}  // namespace quarry::storage

#endif  // QUARRY_STORAGE_GENERATION_STORE_H_
