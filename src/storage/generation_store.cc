#include "storage/generation_store.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "obs/metrics.h"

namespace quarry::storage {

namespace {

/// Process-wide pin gauge: Pins may outlive their store, so the gauge they
/// decrement on release must too (registry pointers are process-lifetime).
obs::Gauge& PinsGauge() {
  return obs::MetricsRegistry::Instance().gauge(
      "quarry_serving_pins_active",
      "Reader pins currently holding a warehouse generation");
}

}  // namespace

GenerationStore::Pin& GenerationStore::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Release();
    db_ = std::move(other.db_);
    annex_ = std::move(other.annex_);
    pin_count_ = std::move(other.pin_count_);
    generation_ = other.generation_;
    other.db_ = nullptr;
    other.generation_ = 0;
  }
  return *this;
}

void GenerationStore::Pin::Release() {
  if (db_ == nullptr) return;
  db_ = nullptr;
  annex_ = nullptr;
  generation_ = 0;
  if (pin_count_ != nullptr) {
    pin_count_->fetch_sub(1, std::memory_order_acq_rel);
    PinsGauge().Add(-1.0);
    pin_count_ = nullptr;
  }
}

GenerationStore::GenerationStore(std::string name) : name_(std::move(name)) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  published_total_ =
      &reg.counter("quarry_serving_generations_published_total",
                   "Warehouse generations atomically published");
  publish_failures_total_ =
      &reg.counter("quarry_serving_publish_failures_total",
                   "Publishes refused at the storage.generation.publish "
                   "fault site or by a failed durable commit (scratch "
                   "discarded, old generation kept)");
  retired_total_ = &reg.counter("quarry_serving_generations_retired_total",
                                "Warehouse generations released by the store");
  retires_deferred_total_ =
      &reg.counter("quarry_serving_retires_deferred_total",
                   "Retires deferred by the storage.generation.retire fault "
                   "site or a failed generation-directory deletion (retried "
                   "on later publishes)");
  live_gauge_ = &reg.gauge("quarry_serving_generations_live",
                           "Generations the store currently references");
  pins_gauge_ = &PinsGauge();
  memory_gauge_ = &reg.gauge(
      "quarry_serving_generation_memory_bytes",
      "Bytes the live generations hold in memory (typed payloads, null "
      "masks, string heap, key structures; a shared segment counts once)");
}

uint64_t GenerationStore::current_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_.id;
}

bool GenerationStore::durable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_;
}

std::string GenerationStore::durable_dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_dir_;
}

GenerationStore::Pin GenerationStore::MakePin(const Generation& gen) const {
  Pin pin;
  pin.db_ = gen.db;
  pin.annex_ = gen.annex;
  pin.generation_ = gen.id;
  pin.pin_count_ = pin_count_;
  pin_count_->fetch_add(1, std::memory_order_acq_rel);
  pins_gauge_->Add(1.0);
  return pin;
}

Result<GenerationStore::Pin> GenerationStore::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_.id == 0) {
    return Status::NotFound("warehouse '" + name_ +
                            "' has no published generation");
  }
  return MakePin(current_);
}

Result<GenerationStore::Pin> GenerationStore::AcquirePrevious() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (previous_.id == 0) {
    return Status::NotFound("warehouse '" + name_ +
                            "' has no previous generation to serve stale");
  }
  return MakePin(previous_);
}

std::unique_ptr<Database> GenerationStore::BeginEmptyBuild() const {
  return std::make_unique<Database>(name_);
}

int GenerationStore::RetireBatch(std::vector<Generation> gens) {
  bool durable = false;
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable = durable_;
    dir = durable_dir_;
  }
  int released = 0;
  for (Generation& gen : gens) {
    if (gen.id == 0) continue;
    // The release step can genuinely fail on a durable store (the
    // directory deletion); the injected fault models the same failure for
    // in-memory stores. Either way the generation is parked on the
    // deferred list — still accounted live, never leaked — and retried on
    // the next publish.
    Status verdict = Status::OK();
    if (fault::Enabled()) verdict = fault::Check("storage.generation.retire");
    if (verdict.ok() && durable) {
      verdict = persist::RemoveGenerationDir(dir, gen.id);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!verdict.ok()) {
      ++stats_.retires_deferred;
      retires_deferred_total_->Increment();
      deferred_retire_.push_back(std::move(gen));
      continue;
    }
    ++stats_.retired;
    retired_total_->Increment();
    ++released;
    // Dropping the shared_ptr (when `gens` dies, outside mu_) is the
    // in-memory release; readers still pinned on this generation keep it
    // alive until their Pin goes away.
  }
  return released;
}

void GenerationStore::UpdateMemoryGauge() const {
  std::vector<std::shared_ptr<const Database>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Generation* gen : {&current_, &previous_}) {
      if (gen->db != nullptr) live.push_back(gen->db);
    }
    for (const Generation& gen : deferred_retire_) {
      if (gen.db != nullptr) live.push_back(gen.db);
    }
  }
  std::unordered_set<const ValueSegment*> counted;
  size_t bytes = 0;
  for (const auto& db : live) bytes += db->MemoryBytes(&counted);
  memory_gauge_->Set(static_cast<double>(bytes));
}

void GenerationStore::UpdateGaugesLocked() const {
  int live = (current_.id != 0 ? 1 : 0) + (previous_.id != 0 ? 1 : 0) +
             static_cast<int>(deferred_retire_.size());
  live_gauge_->Set(static_cast<double>(live));
}

Result<uint64_t> GenerationStore::Publish(std::unique_ptr<Database> next,
                                          std::shared_ptr<const void> annex,
                                          std::string_view annex_bytes) {
  if (next == nullptr) {
    return Status::InvalidArgument("cannot publish a null generation");
  }
  // Fingerprint outside the locks: it scans every table, and the scratch
  // is still private to this thread.
  const uint64_t fingerprint = next->Fingerprint();
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  bool durable = false;
  std::string dir;
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fault::Enabled()) {
      if (Status injected = fault::Check("storage.generation.publish");
          !injected.ok()) {
        ++stats_.publish_failures;
        publish_failures_total_->Increment();
        // `next` dies with this scope — that IS the rollback: no store
        // state changed, readers keep the old generation.
        return injected.WithContext("publishing generation of warehouse '" +
                                    name_ + "'");
      }
    }
    id = next_id_++;
    durable = durable_;
    dir = durable_dir_;
  }
  if (durable) {
    // The durable two-phase commit runs before any reader-visible state
    // changes, and outside mu_ so queries never wait on an fsync. A
    // failure here is a torn publish: the old generation keeps serving,
    // the half-written directory is discarded by the next recovery (or by
    // the retried publish reusing the id).
    if (Status persisted = persist::PersistGeneration(dir, id, *next,
                                                      fingerprint,
                                                      annex_bytes);
        !persisted.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      // publish_mu_ guarantees no other publisher interleaved, so the
      // unused id can be handed back and ids stay dense.
      next_id_ = id;
      ++stats_.publish_failures;
      publish_failures_total_->Increment();
      return persisted.WithContext("publishing generation of warehouse '" +
                                   name_ + "'");
    }
  }
  Generation gen;
  gen.id = id;
  gen.db = std::shared_ptr<const Database>(std::move(next));
  gen.annex = std::move(annex);
  gen.annex_bytes = std::string(annex_bytes);
  std::vector<Generation> to_retire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fingerprints_[gen.id] = fingerprint;
    to_retire.push_back(std::move(previous_));
    previous_ = std::move(current_);
    current_ = std::move(gen);
    ++stats_.published;
    published_total_->Increment();
    // Retry earlier deferred retires while we already own publish_mu_.
    for (Generation& d : deferred_retire_) to_retire.push_back(std::move(d));
    deferred_retire_.clear();
  }
  RetireBatch(std::move(to_retire));
  {
    std::lock_guard<std::mutex> lock(mu_);
    UpdateGaugesLocked();
  }
  UpdateMemoryGauge();
  return id;
}

Result<uint64_t> GenerationStore::PublishedFingerprint(
    uint64_t generation) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fingerprints_.find(generation);
  if (it == fingerprints_.end()) {
    return Status::NotFound("generation " + std::to_string(generation) +
                            " was never published in warehouse '" + name_ +
                            "'");
  }
  return it->second;
}

int GenerationStore::DrainDeferredRetires() {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  std::vector<Generation> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(deferred_retire_);
  }
  int drained = RetireBatch(std::move(pending));
  {
    std::lock_guard<std::mutex> lock(mu_);
    UpdateGaugesLocked();
  }
  UpdateMemoryGauge();
  return drained;
}

Status GenerationStore::EnableDurability(
    const std::string& dir, AnnexDecoder decoder,
    persist::GenerationRecoveryStats* stats) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::ExecutionError("cannot create generation store '" + dir +
                                  "': " + ec.message());
  }
  // The annex of each candidate generation must decode for the candidate
  // to count as intact — an undecodable annex is as unservable as a CRC
  // mismatch, and recovery falls back to the next-newest generation.
  std::shared_ptr<const void> decoded;
  persist::GenerationValidator validator;
  if (decoder != nullptr) {
    validator = [&](const persist::LoadedGeneration& g) -> Status {
      decoded = nullptr;
      if (g.annex_bytes.empty()) return Status::OK();
      QUARRY_ASSIGN_OR_RETURN(decoded, decoder(g.annex_bytes));
      return Status::OK();
    };
  }
  persist::GenerationRecoveryStats local;
  persist::GenerationRecoveryStats& rstats = stats != nullptr ? *stats : local;
  QUARRY_ASSIGN_OR_RETURN(
      persist::LoadedGeneration recovered,
      persist::RecoverNewestGeneration(dir, validator, &rstats));

  uint64_t checkpoint_id = 0;
  std::shared_ptr<const Database> checkpoint_db;
  uint64_t checkpoint_fp = 0;
  std::string checkpoint_annex;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_.id == 0 && recovered.id != 0) {
      // Cold start: republish the newest intact on-disk generation so
      // readers serve immediately, without waiting on any ETL rebuild.
      Generation gen;
      gen.id = recovered.id;
      gen.db = std::shared_ptr<const Database>(std::move(recovered.db));
      gen.annex = std::move(decoded);
      gen.annex_bytes = std::move(recovered.annex_bytes);
      fingerprints_[gen.id] = recovered.fingerprint;
      current_ = std::move(gen);
    } else if (current_.id != 0 && current_.id != recovered.id) {
      // The store was published to before it became durable: checkpoint
      // the in-memory generation so the directory catches up.
      checkpoint_id = current_.id;
      checkpoint_db = current_.db;
      checkpoint_fp = fingerprints_[current_.id];
      checkpoint_annex = current_.annex_bytes;
    }
    next_id_ =
        std::max(next_id_,
                 std::max(recovered.id, recovered.max_seen_id) + 1);
  }
  if (checkpoint_id != 0) {
    QUARRY_RETURN_NOT_OK(
        persist::PersistGeneration(dir, checkpoint_id, *checkpoint_db,
                                   checkpoint_fp, checkpoint_annex)
            .WithContext("checkpointing in-memory generation " +
                         std::to_string(checkpoint_id)));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable_ = true;
    durable_dir_ = dir;
    UpdateGaugesLocked();
  }
  UpdateMemoryGauge();
  return Status::OK();
}

GenerationStoreStats GenerationStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  GenerationStoreStats out = stats_;
  out.live_generations = (current_.id != 0 ? 1 : 0) +
                         (previous_.id != 0 ? 1 : 0) +
                         static_cast<int>(deferred_retire_.size());
  out.active_pins = pin_count_->load(std::memory_order_acquire);
  return out;
}

}  // namespace quarry::storage
