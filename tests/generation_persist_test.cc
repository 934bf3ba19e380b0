// Durable warehouse generations (docs/ROBUSTNESS.md §10): segment
// round-trips, the two-phase commit, cold-start recovery with torn-publish
// discard and corruption quarantine, the persistence edge cases around
// pins and deferred retires, and the kill-and-recover crash matrix over
// every storage.generation.persist.* / recover.* fault site.

#include "storage/generation_persist.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injection.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"
#include "storage/csv.h"
#include "storage/generation_store.h"

namespace quarry {
namespace {

namespace fs = std::filesystem;

using fault::Injector;
using fault::SiteConfig;
using storage::Column;
using storage::DataType;
using storage::Database;
using storage::ForeignKey;
using storage::GenerationStore;
using storage::Table;
using storage::TableSchema;
using storage::Value;

std::string TempDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A two-table star (dimension + fact with an FK onto it) covering every
/// value type, NULLs included; `marker` varies the content so fingerprints
/// distinguish generations.
std::unique_ptr<Database> TinyDb(int64_t marker) {
  auto db = std::make_unique<Database>("w");
  TableSchema dim("dim");
  EXPECT_TRUE(dim.AddColumn({"id", DataType::kInt64, false}).ok());
  EXPECT_TRUE(dim.AddColumn({"label", DataType::kString, true}).ok());
  EXPECT_TRUE(dim.AddColumn({"since", DataType::kDate, true}).ok());
  EXPECT_TRUE(dim.AddColumn({"active", DataType::kBool, true}).ok());
  EXPECT_TRUE(dim.SetPrimaryKey({"id"}).ok());
  Table* dim_table = *db->CreateTable(std::move(dim));
  EXPECT_TRUE(dim_table
                  ->InsertAll({{Value::Int(1), Value::String("alpha"),
                                Value::DateYmd(2015, 3, 27), Value::Bool(true)},
                               {Value::Int(2), Value::Null(), Value::Null(),
                                Value::Bool(false)}})
                  .ok());
  TableSchema fact("fact");
  EXPECT_TRUE(fact.AddColumn({"fid", DataType::kInt64, false}).ok());
  EXPECT_TRUE(fact.AddColumn({"did", DataType::kInt64, false}).ok());
  EXPECT_TRUE(fact.AddColumn({"v", DataType::kDouble, true}).ok());
  EXPECT_TRUE(fact.SetPrimaryKey({"fid"}).ok());
  EXPECT_TRUE(fact.AddForeignKey({{"did"}, "dim", {"id"}}).ok());
  Table* fact_table = *db->CreateTable(std::move(fact));
  EXPECT_TRUE(fact_table
                  ->InsertAll({{Value::Int(10), Value::Int(1),
                                Value::Double(static_cast<double>(marker))},
                               {Value::Int(11), Value::Int(2), Value::Null()}})
                  .ok());
  return db;
}

/// Decoder used by the store-level tests: the annex round-trips as a plain
/// string (core uses an xMD document; the store does not care).
GenerationStore::AnnexDecoder StringDecoder() {
  return [](const std::string& bytes) -> Result<std::shared_ptr<const void>> {
    return std::shared_ptr<const void>(
        std::make_shared<std::string>(bytes));
  };
}

void CorruptOneByte(const fs::path& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.get(byte);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(byte ^ 0x5a));
}

class GenerationPersistTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Injector::Instance().Disable();
    Injector::Instance().ClearConfigs();
  }
};

// ---------------------------------------------------------------------------
// Segment format.

TEST_F(GenerationPersistTest, SegmentRoundtripsSchemaRowsAndFingerprint) {
  auto db = TinyDb(7);
  const Table* fact = *db->GetTable("fact");
  std::string bytes = storage::persist::SerializeTable(*fact);
  // Deterministic: equal state, equal bytes.
  EXPECT_EQ(bytes, storage::persist::SerializeTable(*fact));

  auto restored = storage::persist::DeserializeTable(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->Fingerprint(), fact->Fingerprint());
  EXPECT_EQ((*restored)->num_rows(), fact->num_rows());
  const TableSchema& schema = (*restored)->schema();
  EXPECT_EQ(schema.name(), "fact");
  ASSERT_EQ(schema.foreign_keys().size(), 1u);
  EXPECT_EQ(schema.foreign_keys()[0].referenced_table, "dim");
  const std::vector<std::string> want_pk = {"fid"};
  EXPECT_EQ(schema.primary_key(), want_pk);
  // NULL survived as NULL, not as a default.
  EXPECT_TRUE((*restored)->rows()[1][2].is_null());
}

// ---------------------------------------------------------------------------
// Golden values: what is on disk, and what MANIFEST.json fingerprints, must
// not drift between versions. LoadGeneration quarantines a generation whose
// tables no longer hash to its manifest fingerprint, so a drift would
// quarantine every generation an earlier binary persisted at the first
// restart. The constants below were computed by the row-store Table and are
// specific to gcc 12 / libstdc++: Value::Hash (and so Table::Fingerprint)
// goes through std::hash.

/// FNV-1a over `bytes`: a stable digest of a segment too large to inline.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// A 1,201-row table over every type with NULLs: INTs stored into a DOUBLE
/// column (one beyond 2^53, which the column rounds), ints beyond 2^53 in
/// an INT column, strings longer than 15 bytes, a column added by
/// AddColumn after 1,100 rows, and cells filled by a keyed loader merge.
std::unique_ptr<Database> GoldenDb() {
  auto db = std::make_unique<Database>("golden_w");
  TableSchema schema("golden");
  EXPECT_TRUE(schema.AddColumn({"id", DataType::kInt64, false}).ok());
  EXPECT_TRUE(schema.AddColumn({"flag", DataType::kBool, true}).ok());
  EXPECT_TRUE(schema.AddColumn({"qty", DataType::kInt64, true}).ok());
  EXPECT_TRUE(schema.AddColumn({"price", DataType::kDouble, true}).ok());
  EXPECT_TRUE(schema.AddColumn({"name", DataType::kString, true}).ok());
  EXPECT_TRUE(schema.AddColumn({"day", DataType::kDate, true}).ok());
  EXPECT_TRUE(schema.SetPrimaryKey({"id"}).ok());
  Table* table = *db->CreateTable(std::move(schema));
  constexpr int64_t kBig = (int64_t{1} << 53) + 1;
  auto row = [&](int64_t i) {
    storage::Row r;
    r.push_back(Value::Int(i));
    r.push_back(i % 7 == 0 ? Value::Null() : Value::Bool(i % 2 == 0));
    r.push_back(i % 11 == 0   ? Value::Null()
                : i % 13 == 0 ? Value::Int(kBig + i)
                              : Value::Int(i * 3 - 500));
    r.push_back(i % 5 == 0    ? Value::Null()
                : i % 17 == 0 ? Value::Int(i % 34 == 0 ? kBig : i)
                              : Value::Double(static_cast<double>(i) * 0.25));
    r.push_back(i % 9 == 0 ? Value::Null()
                : i % 4 == 0
                    ? Value::String("a string longer than fifteen bytes #" +
                                    std::to_string(i))
                    : Value::String("s" + std::to_string(i % 50)));
    r.push_back(i % 6 == 0 ? Value::Null()
                           : Value::Date(static_cast<int32_t>(9000 + i)));
    return r;
  };
  for (int64_t i = 0; i < 1100; ++i) EXPECT_TRUE(table->Insert(row(i)).ok());
  EXPECT_TRUE(table->AddColumn({"extra", DataType::kDouble, true}).ok());
  for (int64_t i = 1100; i < 1200; ++i) {
    storage::Row r = row(i);
    r.push_back(i % 3 == 0 ? Value::Null() : Value::Int(i));
    EXPECT_TRUE(table->Insert(std::move(r)).ok());
  }

  // A keyed loader merge: ids 5 and 1101 exist and take their NULL cells
  // from the patch; id 5000 is new.
  Database src("golden_src");
  TableSchema patch("patch");
  EXPECT_TRUE(patch.AddColumn({"id", DataType::kInt64, false}).ok());
  EXPECT_TRUE(patch.AddColumn({"name", DataType::kString, true}).ok());
  EXPECT_TRUE(patch.AddColumn({"extra", DataType::kDouble, true}).ok());
  Table* patch_table = *src.CreateTable(std::move(patch));
  EXPECT_TRUE(patch_table
                  ->InsertAll({{Value::Int(5), Value::String("unused"),
                                Value::Double(1.5)},
                               {Value::Int(1101), Value::Null(),
                                Value::Double(-2.75)},
                               {Value::Int(5000),
                                Value::String("merged in by a keyed loader"),
                                Value::Null()}})
                  .ok());
  etl::Flow flow("golden_merge");
  etl::Node scan;
  scan.id = "scan";
  scan.type = etl::OpType::kDatastore;
  scan.params["table"] = "patch";
  etl::Node load;
  load.id = "load";
  load.type = etl::OpType::kLoader;
  load.params["table"] = "golden";
  load.params["keys"] = "id";
  EXPECT_TRUE(flow.AddNode(std::move(scan)).ok());
  EXPECT_TRUE(flow.AddNode(std::move(load)).ok());
  EXPECT_TRUE(flow.AddEdge("scan", "load").ok());
  etl::Executor executor(&src, db.get());
  EXPECT_TRUE(executor.Run(flow).ok());
  return db;
}

TEST_F(GenerationPersistTest, GoldenFingerprintsAndSegmentBytes) {
  auto db = GoldenDb();
  const Table* table = *db->GetTable("golden");
  ASSERT_EQ(table->num_rows(), 1201u);
  const std::string bytes = storage::persist::SerializeTable(*table);
  EXPECT_EQ(table->Fingerprint(), 3945288190047187076ull)
      << table->Fingerprint();
  EXPECT_EQ(db->Fingerprint(), 4846197473530876815ull) << db->Fingerprint();
  EXPECT_EQ(bytes.size(), 57047u);
  EXPECT_EQ(Fnv1a(bytes), 13406027621606433355ull) << Fnv1a(bytes);
}

// QSEG segments written by the row-store Table (TinyDb(7)'s two tables)
// read back to the same fingerprints and re-serialize to the same bytes.
TEST_F(GenerationPersistTest, GoldenSegmentsReadBack) {
  struct Golden {
    const char* table;
    const char* hex;
    uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {"dim",
       "5153454701000000fdcc552072000000000000000300000064696d0400000002"
       "00000069640100050000006c6162656c03010500000073696e63650401060000"
       "0061637469766500010100000002000000696400000000020000000000000002"
       "01000000000000000405000000616c7068610589400000010102020000000000"
       "000000000100",
       6813494343863654593ull},
      {"fact",
       "5153454701000000a84eebc78600000000000000040000006661637403000000"
       "0300000066696401000300000064696401000100000076020101000000030000"
       "006669640100000001000000030000006469640300000064696d010000000200"
       "000069640200000000000000020a000000000000000201000000000000000300"
       "00000000001c40020b0000000000000002020000000000000000",
       4335476855312468970ull},
  };
  auto db = TinyDb(7);
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.table);
    const std::string bytes = FromHex(golden.hex);
    EXPECT_EQ(ToHex(storage::persist::SerializeTable(
                  **db->GetTable(golden.table))),
              golden.hex);
    auto restored = storage::persist::DeserializeTable(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->Fingerprint(), golden.fingerprint)
        << (*restored)->Fingerprint();
    EXPECT_EQ(storage::persist::SerializeTable(**restored), bytes);
  }
}

TEST_F(GenerationPersistTest, SegmentCorruptionReadsAsParseError) {
  auto db = TinyDb(1);
  std::string bytes = storage::persist::SerializeTable(**db->GetTable("dim"));
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x40;
  EXPECT_TRUE(
      storage::persist::DeserializeTable(flipped).status().IsParseError());
  EXPECT_TRUE(storage::persist::DeserializeTable(bytes.substr(0, 10))
                  .status()
                  .IsParseError());
  EXPECT_TRUE(storage::persist::DeserializeTable(
                  bytes.substr(0, bytes.size() - 3))
                  .status()
                  .IsParseError());
}

// ---------------------------------------------------------------------------
// Durable publish + cold-start recovery.

TEST_F(GenerationPersistTest, DurablePublishesSurviveColdStart) {
  std::string dir = TempDir("quarry_genpersist_coldstart");
  uint64_t fp3 = 0;
  {
    GenerationStore store("w");
    ASSERT_TRUE(store.EnableDurability(dir, StringDecoder()).ok());
    EXPECT_TRUE(store.durable());
    EXPECT_EQ(store.durable_dir(), dir);
    for (int64_t i = 1; i <= 3; ++i) {
      auto published = store.Publish(TinyDb(i), nullptr,
                                     "annex-" + std::to_string(i));
      ASSERT_TRUE(published.ok()) << published.status().ToString();
    }
    fp3 = *store.PublishedFingerprint(3);
    // Retention on disk mirrors retention in memory: current + previous.
    EXPECT_TRUE(fs::exists(dir + "/gen-2/MANIFEST.json"));
    EXPECT_TRUE(fs::exists(dir + "/gen-3/MANIFEST.json"));
    EXPECT_FALSE(fs::exists(dir + "/gen-1"));
  }
  // "Restart": a fresh store over the same directory.
  GenerationStore recovered("w");
  storage::persist::GenerationRecoveryStats stats;
  ASSERT_TRUE(recovered.EnableDurability(dir, StringDecoder(), &stats).ok());
  EXPECT_EQ(stats.recovered_generation, 3u);
  EXPECT_EQ(stats.recovered_fingerprint, fp3);
  EXPECT_EQ(stats.tables_loaded, 2u);
  EXPECT_EQ(stats.rows_loaded, 4u);
  EXPECT_EQ(stats.older_removed, 1u);  // gen-2 was superseded.
  EXPECT_TRUE(stats.annex_recovered);
  EXPECT_TRUE(stats.quarantined.empty());

  EXPECT_EQ(recovered.current_generation(), 3u);
  auto pin = recovered.Acquire();
  ASSERT_TRUE(pin.ok());
  // Byte-identical content, annex included.
  EXPECT_EQ(pin->db().Fingerprint(), fp3);
  EXPECT_EQ(*recovered.PublishedFingerprint(3), fp3);
  auto annex = std::static_pointer_cast<const std::string>(pin->annex());
  ASSERT_NE(annex, nullptr);
  EXPECT_EQ(*annex, "annex-3");
  // Ids resume above everything ever seen on disk.
  auto next = recovered.Publish(TinyDb(4));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 4u);
}

TEST_F(GenerationPersistTest, RecoveryWithZeroIntactGenerationsServesEmpty) {
  std::string dir = TempDir("quarry_genpersist_empty");
  // A torn publish (no manifest) is all the directory holds.
  fs::create_directories(dir + "/gen-5");
  std::ofstream(dir + "/gen-5/t0000.seg") << "half a segme";

  GenerationStore store("w");
  storage::persist::GenerationRecoveryStats stats;
  ASSERT_TRUE(store.EnableDurability(dir, StringDecoder(), &stats).ok());
  EXPECT_EQ(stats.recovered_generation, 0u);
  EXPECT_EQ(stats.torn_discarded, 1u);
  EXPECT_FALSE(fs::exists(dir + "/gen-5"));
  // Serve empty, don't crash: reads report NotFound, stats work.
  EXPECT_FALSE(store.has_generation());
  EXPECT_TRUE(store.Acquire().status().IsNotFound());
  EXPECT_EQ(store.stats().live_generations, 0);
  // And the store heals forward: the discarded id is never reused.
  auto published = store.Publish(TinyDb(1), nullptr, "a");
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 6u);
  EXPECT_TRUE(fs::exists(dir + "/gen-6/MANIFEST.json"));
}

TEST_F(GenerationPersistTest, TornPublishKeepsServingAndIsDiscardedOnRecovery) {
  std::string dir = TempDir("quarry_genpersist_torn");
  GenerationStore store("w");
  ASSERT_TRUE(store.EnableDurability(dir, StringDecoder()).ok());
  ASSERT_TRUE(store.Publish(TinyDb(1), nullptr, "a").ok());
  const uint64_t fp1 = *store.PublishedFingerprint(1);

  // The commit write fails: everything before the manifest landed.
  Injector::Instance().Enable(23);
  Injector::Instance().Configure("storage.generation.persist.manifest",
                                 {0.0, /*trigger_on_hit=*/1, 0, -1});
  EXPECT_FALSE(store.Publish(TinyDb(2), nullptr, "b").ok());
  Injector::Instance().Disable();
  Injector::Instance().ClearConfigs();

  // The torn directory exists but carries no commit record...
  EXPECT_TRUE(fs::exists(dir + "/gen-2"));
  EXPECT_FALSE(fs::exists(dir + "/gen-2/MANIFEST.json"));
  // ...the store keeps serving generation 1, and a retried publish reuses
  // the id cleanly (ids stay dense).
  EXPECT_EQ(store.current_generation(), 1u);
  EXPECT_EQ(store.stats().publish_failures, 1u);
  auto retry = store.Publish(TinyDb(2), nullptr, "b");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 2u);
  EXPECT_TRUE(fs::exists(dir + "/gen-2/MANIFEST.json"));

  // A torn dir left by a crash (no retry) is discarded by recovery.
  fs::create_directories(dir + "/gen-3");
  std::ofstream(dir + "/gen-3/t0000.seg") << "torn";
  GenerationStore recovered("w");
  storage::persist::GenerationRecoveryStats stats;
  ASSERT_TRUE(recovered.EnableDurability(dir, StringDecoder(), &stats).ok());
  EXPECT_EQ(stats.torn_discarded, 1u);
  EXPECT_EQ(stats.recovered_generation, 2u);
  EXPECT_EQ(recovered.Acquire()->db().Fingerprint(),
            *store.PublishedFingerprint(2));
  EXPECT_NE(recovered.Acquire()->db().Fingerprint(), fp1);
}

TEST_F(GenerationPersistTest, CorruptSegmentQuarantinesAndFallsBack) {
  std::string dir = TempDir("quarry_genpersist_corrupt");
  uint64_t fp1 = 0;
  {
    GenerationStore store("w");
    ASSERT_TRUE(store.EnableDurability(dir, StringDecoder()).ok());
    ASSERT_TRUE(store.Publish(TinyDb(1), nullptr, "a").ok());
    ASSERT_TRUE(store.Publish(TinyDb(2), nullptr, "b").ok());
    fp1 = *store.PublishedFingerprint(1);
  }
  // Bit rot inside a committed segment of the newest generation.
  CorruptOneByte(dir + "/gen-2/t0000.seg", 64);

  GenerationStore recovered("w");
  storage::persist::GenerationRecoveryStats stats;
  ASSERT_TRUE(recovered.EnableDurability(dir, StringDecoder(), &stats).ok());
  // The corrupt generation is set aside for forensics, not deleted...
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0].id, 2u);
  EXPECT_TRUE(fs::exists(dir + "/gen-2.quarantined"));
  EXPECT_FALSE(fs::exists(dir + "/gen-2"));
  // ...and recovery falls back to the next-newest intact generation.
  EXPECT_EQ(stats.recovered_generation, 1u);
  EXPECT_EQ(recovered.Acquire()->db().Fingerprint(), fp1);
  // Ids never collide with the quarantined generation.
  auto next = recovered.Publish(TinyDb(3));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
}

TEST_F(GenerationPersistTest, FingerprintMismatchQuarantines) {
  std::string dir = TempDir("quarry_genpersist_fpmismatch");
  {
    GenerationStore store("w");
    ASSERT_TRUE(store.EnableDurability(dir, StringDecoder()).ok());
    ASSERT_TRUE(store.Publish(TinyDb(1), nullptr, "a").ok());
  }
  // Tamper the manifest's content fingerprint (still valid JSON + hex).
  std::string manifest = *storage::ReadFile(dir + "/gen-1/MANIFEST.json");
  size_t pos = manifest.find("\"fingerprint\": \"");
  ASSERT_NE(pos, std::string::npos);
  pos += std::string("\"fingerprint\": \"").size();
  for (int i = 0; i < 16; ++i) manifest[pos + i] = '0';
  ASSERT_TRUE(storage::WriteFile(dir + "/gen-1/MANIFEST.json", manifest).ok());

  GenerationStore recovered("w");
  storage::persist::GenerationRecoveryStats stats;
  ASSERT_TRUE(recovered.EnableDurability(dir, StringDecoder(), &stats).ok());
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_NE(stats.quarantined[0].reason.find("fingerprint"),
            std::string::npos);
  EXPECT_EQ(stats.recovered_generation, 0u);
  EXPECT_FALSE(recovered.has_generation());
}

TEST_F(GenerationPersistTest, UndecodableAnnexQuarantines) {
  std::string dir = TempDir("quarry_genpersist_badannex");
  {
    GenerationStore store("w");
    ASSERT_TRUE(store.EnableDurability(dir, StringDecoder()).ok());
    ASSERT_TRUE(store.Publish(TinyDb(1), nullptr, "not-a-schema").ok());
  }
  GenerationStore recovered("w");
  storage::persist::GenerationRecoveryStats stats;
  GenerationStore::AnnexDecoder refusing =
      [](const std::string&) -> Result<std::shared_ptr<const void>> {
    return Status::ParseError("annex does not parse");
  };
  ASSERT_TRUE(recovered.EnableDurability(dir, refusing, &stats).ok());
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.recovered_generation, 0u);
  EXPECT_TRUE(recovered.Acquire().status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Persistence edge cases: pins, deferred retires, pre-durability state.

TEST_F(GenerationPersistTest, PinStaysValidAcrossProcessSimulatedRecovery) {
  std::string dir = TempDir("quarry_genpersist_pin");
  GenerationStore old_process("w");
  ASSERT_TRUE(old_process.EnableDurability(dir, StringDecoder()).ok());
  ASSERT_TRUE(old_process.Publish(TinyDb(1), nullptr, "a").ok());
  ASSERT_TRUE(old_process.Publish(TinyDb(2), nullptr, "b").ok());
  auto pin = old_process.Acquire();
  ASSERT_TRUE(pin.ok());
  const uint64_t fp2 = pin->db().Fingerprint();

  // A second store recovers the same directory while the pin is held (the
  // restarted process; the old one still drains its last queries).
  GenerationStore new_process("w");
  ASSERT_TRUE(new_process.EnableDurability(dir, StringDecoder()).ok());
  EXPECT_EQ(new_process.current_generation(), 2u);
  EXPECT_EQ(new_process.Acquire()->db().Fingerprint(), fp2);

  // The new store publishes (and retires gen 2's directory eventually);
  // the old pin keeps reading its in-memory snapshot, bit-identical.
  ASSERT_TRUE(new_process.Publish(TinyDb(3), nullptr, "c").ok());
  ASSERT_TRUE(new_process.Publish(TinyDb(4), nullptr, "d").ok());
  EXPECT_FALSE(fs::exists(dir + "/gen-2"));
  EXPECT_TRUE(pin->valid());
  EXPECT_EQ(pin->generation(), 2u);
  EXPECT_EQ(pin->db().Fingerprint(), fp2);
  pin->Release();
  EXPECT_EQ(old_process.stats().active_pins, 0);
}

TEST_F(GenerationPersistTest, DrainDeferredRetiresDeletesDirectories) {
  std::string dir = TempDir("quarry_genpersist_drain");
  GenerationStore store("w");
  ASSERT_TRUE(store.EnableDurability(dir, StringDecoder()).ok());
  Injector::Instance().Enable(29);
  Injector::Instance().Configure("storage.generation.persist.remove",
                                 {0.0, 0, /*fail_from_hit=*/1, -1});
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(store.Publish(TinyDb(i), nullptr, "x").ok());
  }
  // Gen 1 should have been retired, but its directory deletion failed:
  // parked on the deferred list, directory still on disk — not leaked,
  // not forgotten.
  EXPECT_EQ(store.stats().retired, 0u);
  EXPECT_GE(store.stats().retires_deferred, 1u);
  EXPECT_TRUE(fs::exists(dir + "/gen-1/MANIFEST.json"));

  Injector::Instance().Disable();
  Injector::Instance().ClearConfigs();
  EXPECT_EQ(store.DrainDeferredRetires(), 1);
  // The drain completed the on-disk deletion; current + previous remain.
  EXPECT_FALSE(fs::exists(dir + "/gen-1"));
  EXPECT_TRUE(fs::exists(dir + "/gen-2/MANIFEST.json"));
  EXPECT_TRUE(fs::exists(dir + "/gen-3/MANIFEST.json"));
  EXPECT_EQ(store.stats().retired, 1u);
  EXPECT_EQ(store.stats().live_generations, 2);
}

TEST_F(GenerationPersistTest, EnableDurabilityCheckpointsInMemoryState) {
  std::string dir = TempDir("quarry_genpersist_checkpoint");
  GenerationStore store("w");
  // Published before the store became durable (the upgrade path).
  ASSERT_TRUE(store.Publish(TinyDb(1), nullptr, "a").ok());
  const uint64_t fp1 = *store.PublishedFingerprint(1);
  ASSERT_TRUE(store.EnableDurability(dir, StringDecoder()).ok());
  EXPECT_TRUE(fs::exists(dir + "/gen-1/MANIFEST.json"));

  GenerationStore recovered("w");
  storage::persist::GenerationRecoveryStats stats;
  ASSERT_TRUE(recovered.EnableDurability(dir, StringDecoder(), &stats).ok());
  EXPECT_EQ(stats.recovered_generation, 1u);
  EXPECT_EQ(recovered.Acquire()->db().Fingerprint(), fp1);
}

// ---------------------------------------------------------------------------
// Satellite: crash-safe CSV export.

TEST_F(GenerationPersistTest, CsvExportIsAtomicUnderAFaultMidWrite) {
  std::string dir = TempDir("quarry_genpersist_csv");
  const std::string path = dir + "/dim.csv";
  auto db = TinyDb(1);
  ASSERT_TRUE(storage::WriteCsvFile(**db->GetTable("dim"), path).ok());
  const std::string before = *storage::ReadFile(path);

  // The export now rides AtomicWriteFile: a failed rename (crash window)
  // must leave the previous file byte-identical, never a torn prefix.
  Injector::Instance().Enable(31);
  Injector::Instance().Configure("wal.file.rename",
                                 {0.0, /*trigger_on_hit=*/1, 0, -1});
  auto db2 = TinyDb(2);
  EXPECT_FALSE(storage::WriteCsvFile(**db2->GetTable("dim"), path).ok());
  Injector::Instance().Disable();
  Injector::Instance().ClearConfigs();
  EXPECT_EQ(*storage::ReadFile(path), before);

  // Healthy retry replaces the file completely.
  ASSERT_TRUE(storage::WriteCsvFile(**db2->GetTable("fact"), path).ok());
  EXPECT_NE(*storage::ReadFile(path), before);
}

// ---------------------------------------------------------------------------
// The kill-and-recover crash matrix (docs/ROBUSTNESS.md §10.4).
//
// Workload: recover a pre-populated store directory, then publish three
// more generations. A single injected failure at a chosen (site, hit)
// simulates the process dying at that persistence step. Restart = a fresh
// GenerationStore recovering the directory with injection off. Invariant:
// the recovered generation's content fingerprint is byte-identical either
// to the last acknowledged publish or to the exact in-flight one (the
// unacknowledged-but-committed window of persist.sync) — never a torn or
// partial state — and the store converges when the workload resumes.

struct CrashWorkloadResult {
  bool completed = false;       ///< No injected failure fired.
  uint64_t last_acked_fp = 0;   ///< Fingerprint of the last OK publish.
  uint64_t attempted_fp = 0;    ///< Fingerprint of the last attempt.
};

class GenerationCrashMatrixTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Injector::Instance().Disable();
    Injector::Instance().ClearConfigs();
  }

  /// Publishes gens 1..2 healthily, plus a torn leftover, so the workload's
  /// own recovery pass has torn-discard, load and cleanup work to do.
  void PrePopulate(const std::string& dir) {
    GenerationStore store("w");
    ASSERT_TRUE(store.EnableDurability(dir, StringDecoder()).ok());
    for (int64_t i = 1; i <= 2; ++i) {
      auto published = store.Publish(TinyDb(i), nullptr, "seed");
      ASSERT_TRUE(published.ok());
      acked_ = *store.PublishedFingerprint(*published);
    }
    fs::create_directories(dir + "/gen-4");
    std::ofstream(dir + "/gen-4/t0000.seg") << "torn leftover";
  }

  /// One process lifetime: open (recovery) + three publishes. Returns at
  /// the first injected failure — the simulated kill.
  CrashWorkloadResult RunWorkload(const std::string& dir) {
    CrashWorkloadResult result;
    result.last_acked_fp = acked_;
    GenerationStore store("w");
    if (!store.EnableDurability(dir, StringDecoder()).ok()) return result;
    const uint64_t base = store.current_generation();
    for (int64_t i = 1; i <= 3; ++i) {
      auto db = TinyDb(100 + static_cast<int64_t>(base) + i);
      result.attempted_fp = db->Fingerprint();
      const uint64_t deferred_before = store.stats().retires_deferred;
      auto published = store.Publish(std::move(db), nullptr, "live");
      if (!published.ok()) return result;
      result.last_acked_fp = result.attempted_fp;
      // A retire-path fault is silent (the generation is deferred, its
      // directory kept); treat it as the kill too, so recovery must cope
      // with the extra on-disk directories.
      if (store.stats().retires_deferred > deferred_before) return result;
    }
    result.completed = true;
    return result;
  }

  uint64_t acked_ = 0;
};

TEST_F(GenerationCrashMatrixTest, KillAndRecoverAtEveryPersistenceFaultSite) {
  // Discovery: enumerate the persistence fault surface of the workload.
  std::string dir = TempDir("quarry_gencrash_discovery");
  PrePopulate(dir);
  Injector::Instance().Enable(4242);
  CrashWorkloadResult discovery = RunWorkload(dir);
  ASSERT_TRUE(discovery.completed);
  std::map<std::string, int64_t> sites;
  for (const std::string& site : Injector::Instance().HitSites()) {
    if (site.rfind("storage.generation.", 0) == 0) {
      sites[site] = Injector::Instance().HitCount(site);
    }
  }
  Injector::Instance().Disable();
  // The matrix must cover every persistence step the tentpole added.
  for (const char* expected :
       {"storage.generation.persist.segment",
        "storage.generation.persist.segment.torn",
        "storage.generation.persist.annex",
        "storage.generation.persist.manifest",
        "storage.generation.persist.sync",
        "storage.generation.persist.remove",
        "storage.generation.recover.scan",
        "storage.generation.recover.read",
        "storage.generation.recover.cleanup"}) {
    EXPECT_TRUE(sites.count(expected)) << "site never hit: " << expected;
  }

  int entries = 0;
  for (const auto& [site, hits] : sites) {
    std::vector<int64_t> kill_hits;
    for (int64_t h = 1; h <= hits && h <= 4; ++h) kill_hits.push_back(h);
    if (hits > 4) kill_hits.push_back(hits);
    for (int64_t h : kill_hits) {
      SCOPED_TRACE(site + " @hit " + std::to_string(h));
      std::string run_dir =
          TempDir("quarry_gencrash_" + std::to_string(entries++));
      PrePopulate(run_dir);

      Injector::Instance().Configure(
          site, {0.0, /*trigger_on_hit=*/h, 0, /*max_failures=*/1});
      Injector::Instance().Enable(4242);
      CrashWorkloadResult crashed = RunWorkload(run_dir);
      Injector::Instance().Disable();
      Injector::Instance().ClearConfigs();

      // Restart after the kill: recovery with injection off.
      GenerationStore recovered("w");
      storage::persist::GenerationRecoveryStats stats;
      ASSERT_TRUE(
          recovered.EnableDurability(run_dir, StringDecoder(), &stats).ok())
          << stats.ToString();
      // A crash never manufactures corruption: nothing to quarantine.
      EXPECT_TRUE(stats.quarantined.empty()) << stats.ToString();
      // The invariant: whatever recovery serves is byte-identical to an
      // acknowledged publish (or the exact in-flight one) — never torn.
      ASSERT_TRUE(recovered.has_generation()) << stats.ToString();
      const uint64_t fp = recovered.Acquire()->db().Fingerprint();
      EXPECT_TRUE(fp == crashed.last_acked_fp || fp == crashed.attempted_fp)
          << site << "@" << h << ": recovered " << fp << ", acked "
          << crashed.last_acked_fp << ", attempted " << crashed.attempted_fp;
      EXPECT_EQ(*recovered.PublishedFingerprint(
                    recovered.current_generation()),
                fp);

      // Convergence: the healed store keeps publishing durably.
      auto db = TinyDb(999);
      const uint64_t fp_next = db->Fingerprint();
      auto published = recovered.Publish(std::move(db), nullptr, "heal");
      ASSERT_TRUE(published.ok()) << published.status().ToString();
      EXPECT_EQ(recovered.Acquire()->db().Fingerprint(), fp_next);
      recovered.DrainDeferredRetires();
    }
  }
  EXPECT_GT(entries, 10);  // the matrix actually enumerated something.
}

}  // namespace
}  // namespace quarry
