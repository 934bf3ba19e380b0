#include "storage/generation_persist.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/fault_injection.h"
#include "common/wal.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quarry::storage::persist {

namespace {

namespace fs = std::filesystem;

constexpr char kSegmentMagic[4] = {'Q', 'S', 'E', 'G'};
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderSize = 20;  ///< magic + version + crc + len.
constexpr char kManifestName[] = "MANIFEST.json";
constexpr char kAnnexName[] = "annex.seg";
constexpr char kManifestFormat[] = "quarry-generation";
constexpr char kQuarantineSuffix[] = ".quarantined";

// --- metrics (process-lifetime registry pointers) --------------------------

obs::Counter& PersistTotal() {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_generation_persist_total",
      "Warehouse generations committed to disk (manifest rename landed)");
}
obs::Counter& PersistFailuresTotal() {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_generation_persist_failures_total",
      "Generation persists that failed before commit (torn publish on disk, "
      "discarded by the next recovery)");
}
obs::Counter& PersistBytesTotal() {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_generation_persist_bytes_total",
      "Bytes of segment + manifest data written by generation persists");
}
obs::Histogram& PersistMicros() {
  return obs::MetricsRegistry::Instance().histogram(
      "quarry_generation_persist_micros",
      "Latency of a successful generation persist (serialize + fsyncs)",
      obs::LatencyBucketsMicros());
}
obs::Counter& RecoverTotal() {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_generation_recover_total",
      "Warehouse recovery passes over a generation store directory");
}
obs::Counter& RecoverQuarantinedTotal() {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_generation_recover_quarantined_total",
      "Committed generations quarantined by recovery (CRC / fingerprint / "
      "annex validation failure — corruption, not a crash artifact)");
}
obs::Counter& RecoverDiscardedTotal() {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_generation_recover_discarded_total",
      "Torn (uncommitted) generation directories discarded by recovery");
}
obs::Histogram& RecoverMicros() {
  return obs::MetricsRegistry::Instance().histogram(
      "quarry_generation_recover_micros",
      "Latency of a warehouse recovery pass (scan + validate + republish)",
      obs::LatencyBucketsMicros());
}

// --- little-endian framing helpers -----------------------------------------

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}
void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked cursor over serialized bytes; every read reports
/// truncation as kParseError (corruption class).
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  Result<uint8_t> U8() {
    QUARRY_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  Result<uint32_t> U32() {
    QUARRY_RETURN_NOT_OK(Need(4));
    uint32_t v;
    std::memcpy(&v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    QUARRY_RETURN_NOT_OK(Need(8));
    uint64_t v;
    std::memcpy(&v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  Result<std::string> String() {
    QUARRY_ASSIGN_OR_RETURN(uint32_t len, U32());
    QUARRY_RETURN_NOT_OK(Need(len));
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  Status Need(size_t n) {
    if (bytes_.size() - pos_ < n) {
      return Status::ParseError("segment truncated at byte " +
                                std::to_string(pos_));
    }
    return Status::OK();
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// --- segment framing --------------------------------------------------------

std::string WrapSegment(std::string_view payload) {
  std::string out;
  out.reserve(kSegmentHeaderSize + payload.size());
  out.append(kSegmentMagic, 4);
  AppendU32(&out, kSegmentVersion);
  AppendU32(&out, wal::Crc32(payload.data(), payload.size()));
  AppendU64(&out, payload.size());
  out.append(payload);
  return out;
}

Result<std::string_view> UnwrapSegment(std::string_view bytes) {
  if (bytes.size() < kSegmentHeaderSize) {
    return Status::ParseError("segment shorter than its header");
  }
  if (std::memcmp(bytes.data(), kSegmentMagic, 4) != 0) {
    return Status::ParseError("bad segment magic");
  }
  ByteReader reader(bytes.substr(4));
  QUARRY_ASSIGN_OR_RETURN(uint32_t version, reader.U32());
  if (version != kSegmentVersion) {
    return Status::ParseError("unknown segment version " +
                              std::to_string(version));
  }
  QUARRY_ASSIGN_OR_RETURN(uint32_t crc, reader.U32());
  QUARRY_ASSIGN_OR_RETURN(uint64_t len, reader.U64());
  std::string_view payload = bytes.substr(kSegmentHeaderSize);
  if (payload.size() != len) {
    return Status::ParseError("segment payload length mismatch (header says " +
                              std::to_string(len) + ", file holds " +
                              std::to_string(payload.size()) + ")");
  }
  if (wal::Crc32(payload.data(), payload.size()) != crc) {
    return Status::ParseError("segment CRC mismatch");
  }
  return payload;
}

// --- table (de)serialization ------------------------------------------------

/// Value type tags in row storage. Appending only — the on-disk format.
enum ValueTag : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt = 2,
  kTagDouble = 3,
  kTagString = 4,
  kTagDate = 5,
};

std::string SerializeTablePayload(const Table& table) {
  const TableSchema& schema = table.schema();
  std::string out;
  AppendString(&out, schema.name());
  AppendU32(&out, static_cast<uint32_t>(schema.columns().size()));
  for (const Column& col : schema.columns()) {
    AppendString(&out, col.name);
    AppendU8(&out, static_cast<uint8_t>(col.type));
    AppendU8(&out, col.nullable ? 1 : 0);
  }
  AppendU32(&out, static_cast<uint32_t>(schema.primary_key().size()));
  for (const std::string& pk : schema.primary_key()) AppendString(&out, pk);
  AppendU32(&out, static_cast<uint32_t>(schema.foreign_keys().size()));
  for (const ForeignKey& fk : schema.foreign_keys()) {
    AppendU32(&out, static_cast<uint32_t>(fk.columns.size()));
    for (const std::string& c : fk.columns) AppendString(&out, c);
    AppendString(&out, fk.referenced_table);
    AppendU32(&out, static_cast<uint32_t>(fk.referenced_columns.size()));
    for (const std::string& c : fk.referenced_columns) AppendString(&out, c);
  }
  AppendU64(&out, table.num_rows());
  // Row-major cells, read straight from the typed segments (a stored
  // segment is never kMixed).
  using Rep = ValueSegment::Rep;
  for (const Chunk& chunk : table.ScanChunks(Table::kChunkRows)) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        const ValueSegment& seg = chunk.segment(c);
        if (seg.IsNull(r)) {
          AppendU8(&out, kTagNull);
          continue;
        }
        switch (seg.rep()) {
          case Rep::kBool:
            AppendU8(&out, kTagBool);
            AppendU8(&out, seg.bools()[r] != 0 ? 1 : 0);
            break;
          case Rep::kInt64:
            AppendU8(&out, kTagInt);
            AppendU64(&out, static_cast<uint64_t>(seg.ints()[r]));
            break;
          case Rep::kDouble: {
            AppendU8(&out, kTagDouble);
            uint64_t bits;
            std::memcpy(&bits, &seg.doubles()[r], 8);
            AppendU64(&out, bits);
            break;
          }
          case Rep::kString:
            AppendU8(&out, kTagString);
            AppendString(&out, seg.strings()[r]);
            break;
          case Rep::kDate:
            AppendU8(&out, kTagDate);
            AppendU32(&out, static_cast<uint32_t>(seg.dates()[r]));
            break;
          case Rep::kMixed:
            break;  // Never stored.
        }
      }
    }
  }
  return out;
}

Result<Value> ReadValue(ByteReader* reader) {
  QUARRY_ASSIGN_OR_RETURN(uint8_t tag, reader->U8());
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagBool: {
      QUARRY_ASSIGN_OR_RETURN(uint8_t b, reader->U8());
      return Value::Bool(b != 0);
    }
    case kTagInt: {
      QUARRY_ASSIGN_OR_RETURN(uint64_t v, reader->U64());
      return Value::Int(static_cast<int64_t>(v));
    }
    case kTagDouble: {
      QUARRY_ASSIGN_OR_RETURN(uint64_t bits, reader->U64());
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Double(d);
    }
    case kTagString: {
      QUARRY_ASSIGN_OR_RETURN(std::string s, reader->String());
      return Value::String(std::move(s));
    }
    case kTagDate: {
      QUARRY_ASSIGN_OR_RETURN(uint32_t days, reader->U32());
      return Value::Date(static_cast<int32_t>(days));
    }
    default:
      return Status::ParseError("unknown value tag " + std::to_string(tag));
  }
}

Status ParseSegment(std::string_view bytes, TableSchema* schema,
                    std::vector<Row>* rows) {
  QUARRY_ASSIGN_OR_RETURN(std::string_view payload, UnwrapSegment(bytes));
  ByteReader reader(payload);
  QUARRY_ASSIGN_OR_RETURN(std::string name, reader.String());
  *schema = TableSchema(std::move(name));
  QUARRY_ASSIGN_OR_RETURN(uint32_t ncols, reader.U32());
  for (uint32_t i = 0; i < ncols; ++i) {
    Column col;
    QUARRY_ASSIGN_OR_RETURN(col.name, reader.String());
    QUARRY_ASSIGN_OR_RETURN(uint8_t type, reader.U8());
    if (type > static_cast<uint8_t>(DataType::kDate)) {
      return Status::ParseError("unknown column type tag " +
                                std::to_string(type));
    }
    col.type = static_cast<DataType>(type);
    QUARRY_ASSIGN_OR_RETURN(uint8_t nullable, reader.U8());
    col.nullable = nullable != 0;
    QUARRY_RETURN_NOT_OK(schema->AddColumn(std::move(col)));
  }
  QUARRY_ASSIGN_OR_RETURN(uint32_t npk, reader.U32());
  if (npk > 0) {
    std::vector<std::string> pk(npk);
    for (uint32_t i = 0; i < npk; ++i) {
      QUARRY_ASSIGN_OR_RETURN(pk[i], reader.String());
    }
    QUARRY_RETURN_NOT_OK(schema->SetPrimaryKey(std::move(pk)));
  }
  QUARRY_ASSIGN_OR_RETURN(uint32_t nfk, reader.U32());
  for (uint32_t i = 0; i < nfk; ++i) {
    ForeignKey fk;
    QUARRY_ASSIGN_OR_RETURN(uint32_t nc, reader.U32());
    fk.columns.resize(nc);
    for (uint32_t j = 0; j < nc; ++j) {
      QUARRY_ASSIGN_OR_RETURN(fk.columns[j], reader.String());
    }
    QUARRY_ASSIGN_OR_RETURN(fk.referenced_table, reader.String());
    QUARRY_ASSIGN_OR_RETURN(uint32_t nr, reader.U32());
    fk.referenced_columns.resize(nr);
    for (uint32_t j = 0; j < nr; ++j) {
      QUARRY_ASSIGN_OR_RETURN(fk.referenced_columns[j], reader.String());
    }
    QUARRY_RETURN_NOT_OK(schema->AddForeignKey(std::move(fk)));
  }
  QUARRY_ASSIGN_OR_RETURN(uint64_t nrows, reader.U64());
  rows->clear();
  rows->reserve(nrows);
  for (uint64_t r = 0; r < nrows; ++r) {
    Row row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      QUARRY_ASSIGN_OR_RETURN(Value v, ReadValue(&reader));
      row.push_back(std::move(v));
    }
    rows->push_back(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("trailing bytes after the last row");
  }
  return Status::OK();
}

// --- small file / path helpers ----------------------------------------------

std::string SegmentFileName(size_t index) {
  char buf[32];  // "t", up to 20 digits of a size_t, ".seg", NUL.
  std::snprintf(buf, sizeof(buf), "t%04zu.seg", index);
  return buf;
}

std::string FingerprintToHex(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

Result<uint64_t> FingerprintFromHex(const std::string& hex) {
  if (hex.size() != 16 ||
      hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status::ParseError("malformed fingerprint '" + hex + "'");
  }
  return std::strtoull(hex.c_str(), nullptr, 16);
}

Result<std::string> ReadWholeFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::ExecutionError("cannot read '" + path.string() + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    return Status::ExecutionError("read of '" + path.string() + "' failed");
  }
  return ss.str();
}

Status RemoveAll(const fs::path& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) {
    return Status::ExecutionError("cannot remove '" + path.string() +
                                  "': " + ec.message());
  }
  return Status::OK();
}

/// Parses "<prefix>gen-<digits>" into the generation id; nullopt otherwise.
std::optional<uint64_t> ParseGenerationDirName(const std::string& name,
                                               bool* quarantined) {
  std::string stem = name;
  *quarantined = false;
  if (stem.size() > std::strlen(kQuarantineSuffix) &&
      stem.compare(stem.size() - std::strlen(kQuarantineSuffix),
                   std::string::npos, kQuarantineSuffix) == 0) {
    *quarantined = true;
    stem.resize(stem.size() - std::strlen(kQuarantineSuffix));
  }
  if (stem.rfind("gen-", 0) != 0) return std::nullopt;
  std::string digits = stem.substr(4);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

/// Writes a deliberately truncated segment straight to the final path — the
/// artifact a crashed non-atomic writer would leave. Only ever used by the
/// "storage.generation.persist.segment.torn" fault site.
void PlantTornSegment(const fs::path& path, std::string_view segment) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(segment.data(),
            static_cast<std::streamsize>(segment.size() / 2));
}

Status PersistGenerationImpl(const fs::path& gen_dir,
                             const std::string& store_dir, uint64_t id,
                             const Database& db, uint64_t fingerprint,
                             std::string_view annex_bytes, uint64_t* bytes) {
  // Leftovers of an earlier failed attempt at this id (the torn publish a
  // crash would have left) are discarded first, so retries commit cleanly.
  QUARRY_RETURN_NOT_OK(RemoveAll(gen_dir));
  std::error_code ec;
  fs::create_directories(gen_dir, ec);
  if (ec) {
    return Status::ExecutionError("cannot create '" + gen_dir.string() +
                                  "': " + ec.message());
  }

  json::Array table_entries;
  std::vector<std::string> names = db.TableNames();
  for (size_t i = 0; i < names.size(); ++i) {
    QUARRY_ASSIGN_OR_RETURN(const Table* table, db.GetTable(names[i]));
    std::string segment = WrapSegment(SerializeTablePayload(*table));
    const fs::path seg_path = gen_dir / SegmentFileName(i);
    QUARRY_FAULT_POINT("storage.generation.persist.segment");
    if (fault::Enabled()) {
      if (Status torn = fault::Check("storage.generation.persist.segment.torn");
          !torn.ok()) {
        PlantTornSegment(seg_path, segment);
        return torn;
      }
    }
    QUARRY_RETURN_NOT_OK(wal::AtomicWriteFile(seg_path.string(), segment));
    *bytes += segment.size();
    json::Object entry;
    entry.emplace_back("name", json::Value(names[i]));
    entry.emplace_back("file", json::Value(SegmentFileName(i)));
    entry.emplace_back("bytes",
                       json::Value(static_cast<int64_t>(segment.size())));
    entry.emplace_back(
        "crc", json::Value(static_cast<int64_t>(
                   wal::Crc32(segment.data(), segment.size()))));
    table_entries.emplace_back(std::move(entry));
  }

  json::Object manifest;
  manifest.emplace_back("format", json::Value(kManifestFormat));
  manifest.emplace_back("version",
                        json::Value(static_cast<int64_t>(kSegmentVersion)));
  manifest.emplace_back("name", json::Value(db.name()));
  manifest.emplace_back("generation",
                        json::Value(static_cast<int64_t>(id)));
  manifest.emplace_back("fingerprint",
                        json::Value(FingerprintToHex(fingerprint)));
  manifest.emplace_back("tables", json::Value(std::move(table_entries)));
  if (!annex_bytes.empty()) {
    std::string annex_segment = WrapSegment(annex_bytes);
    QUARRY_FAULT_POINT("storage.generation.persist.annex");
    QUARRY_RETURN_NOT_OK(
        wal::AtomicWriteFile((gen_dir / kAnnexName).string(), annex_segment));
    *bytes += annex_segment.size();
    json::Object annex_entry;
    annex_entry.emplace_back("file", json::Value(kAnnexName));
    annex_entry.emplace_back(
        "bytes", json::Value(static_cast<int64_t>(annex_segment.size())));
    annex_entry.emplace_back(
        "crc", json::Value(static_cast<int64_t>(wal::Crc32(
                   annex_segment.data(), annex_segment.size()))));
    manifest.emplace_back("annex", json::Value(std::move(annex_entry)));
  }

  // The commit point: everything the manifest names is already durable, so
  // the atomic rename of MANIFEST.json flips the directory from "torn, will
  // be discarded" to "committed, will be recovered".
  std::string manifest_bytes =
      json::Write(json::Value(std::move(manifest)), /*pretty=*/true);
  QUARRY_FAULT_POINT("storage.generation.persist.manifest");
  QUARRY_RETURN_NOT_OK(wal::AtomicWriteFile(
      (gen_dir / kManifestName).string(), manifest_bytes));
  *bytes += manifest_bytes.size();

  // Make the gen-<id> directory entry itself durable. A crash in this
  // window (manifest committed, store dir not yet fsynced) may surface the
  // generation after restart even though the publish was never
  // acknowledged — the standard unacknowledged-write semantics of a WAL
  // record written but not fsynced.
  QUARRY_FAULT_POINT("storage.generation.persist.sync");
  QUARRY_RETURN_NOT_OK(wal::SyncDirectory(store_dir));
  return Status::OK();
}

/// Validation failures mean corruption (quarantine); everything else is an
/// IO-class failure recovery treats as fatal-but-rerunnable.
bool IsCorruption(const Status& status) {
  return status.IsParseError() || status.IsValidationError();
}

}  // namespace

std::string GenerationDirName(uint64_t id) {
  return "gen-" + std::to_string(id);
}

std::string SerializeTable(const Table& table) {
  return WrapSegment(SerializeTablePayload(table));
}

Result<std::unique_ptr<Table>> DeserializeTable(std::string_view bytes) {
  TableSchema schema;
  std::vector<Row> rows;
  QUARRY_RETURN_NOT_OK(ParseSegment(bytes, &schema, &rows));
  auto table = std::make_unique<Table>(std::move(schema));
  QUARRY_RETURN_NOT_OK(table->InsertAll(std::move(rows)));
  return table;
}

Status PersistGeneration(const std::string& store_dir, uint64_t id,
                         const Database& db, uint64_t fingerprint,
                         std::string_view annex_bytes) {
  QUARRY_NAMED_SPAN(span, "generation_store.persist");
  QUARRY_SPAN_ATTR(span, "generation", std::to_string(id));
  const auto start = std::chrono::steady_clock::now();
  uint64_t bytes = 0;
  Status status =
      PersistGenerationImpl(fs::path(store_dir) / GenerationDirName(id),
                            store_dir, id, db, fingerprint, annex_bytes,
                            &bytes);
  if (!status.ok()) {
    PersistFailuresTotal().Increment();
    return status.WithContext("persisting generation " + std::to_string(id) +
                              " under '" + store_dir + "'");
  }
  PersistTotal().Increment();
  PersistBytesTotal().Increment(static_cast<int64_t>(bytes));
  PersistMicros().Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return Status::OK();
}

Result<LoadedGeneration> LoadGeneration(const std::string& store_dir,
                                        uint64_t id) {
  const fs::path gen_dir = fs::path(store_dir) / GenerationDirName(id);
  QUARRY_FAULT_POINT("storage.generation.recover.read");
  QUARRY_ASSIGN_OR_RETURN(std::string manifest_bytes,
                          ReadWholeFile(gen_dir / kManifestName));
  QUARRY_ASSIGN_OR_RETURN(json::Value manifest, json::Parse(manifest_bytes));
  if (manifest.GetString("format") != kManifestFormat) {
    return Status::ParseError("manifest of generation " + std::to_string(id) +
                              " has an unknown format");
  }
  const json::Value* gen_field = manifest.Find("generation");
  if (gen_field == nullptr || !gen_field->is_int() ||
      static_cast<uint64_t>(gen_field->as_int()) != id) {
    return Status::ValidationError("manifest generation id does not match "
                                   "directory gen-" +
                                   std::to_string(id));
  }
  QUARRY_ASSIGN_OR_RETURN(uint64_t fingerprint,
                          FingerprintFromHex(manifest.GetString("fingerprint")));

  const json::Value* tables = manifest.Find("tables");
  if (tables == nullptr || !tables->is_array()) {
    return Status::ParseError("manifest of generation " + std::to_string(id) +
                              " lacks a tables list");
  }
  // Segments named by a committed manifest were durable before the commit;
  // any mismatch below is corruption, not a crash artifact.
  auto db = std::make_unique<Database>(manifest.GetString("name"));
  std::vector<std::pair<TableSchema, std::vector<Row>>> parsed;
  for (const json::Value& entry : tables->as_array()) {
    const std::string file = entry.GetString("file");
    const fs::path seg_path = gen_dir / file;
    std::error_code ec;
    if (!fs::exists(seg_path, ec)) {
      return Status::ValidationError("segment '" + file + "' of generation " +
                                     std::to_string(id) + " is missing");
    }
    QUARRY_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(seg_path));
    const json::Value* crc = entry.Find("crc");
    const json::Value* size = entry.Find("bytes");
    if (crc == nullptr || size == nullptr ||
        static_cast<int64_t>(bytes.size()) != size->as_int() ||
        static_cast<int64_t>(wal::Crc32(bytes.data(), bytes.size())) !=
            crc->as_int()) {
      return Status::ValidationError("segment '" + file + "' of generation " +
                                     std::to_string(id) +
                                     " fails its manifest CRC");
    }
    TableSchema schema;
    std::vector<Row> rows;
    QUARRY_RETURN_NOT_OK(
        ParseSegment(bytes, &schema, &rows)
            .WithContext("segment '" + file + "' of generation " +
                         std::to_string(id)));
    if (schema.name() != entry.GetString("name")) {
      return Status::ValidationError("segment '" + file +
                                     "' holds table '" + schema.name() +
                                     "', manifest says '" +
                                     entry.GetString("name") + "'");
    }
    parsed.emplace_back(std::move(schema), std::move(rows));
  }

  // CreateTable wants FK-referenced tables to exist first; commit parsed
  // tables in dependency order (star schemas: dimensions before facts).
  std::vector<bool> done(parsed.size(), false);
  size_t remaining = parsed.size();
  while (remaining > 0) {
    size_t progressed = 0;
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (done[i]) continue;
      bool ready = true;
      for (const ForeignKey& fk : parsed[i].first.foreign_keys()) {
        if (!db->HasTable(fk.referenced_table)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      QUARRY_ASSIGN_OR_RETURN(Table * table,
                              db->CreateTable(std::move(parsed[i].first)));
      QUARRY_RETURN_NOT_OK(table->InsertAll(std::move(parsed[i].second)));
      done[i] = true;
      ++progressed;
      --remaining;
    }
    if (progressed == 0) {
      return Status::ValidationError(
          "generation " + std::to_string(id) +
          " has foreign keys onto tables outside the manifest");
    }
  }

  if (db->Fingerprint() != fingerprint) {
    return Status::ValidationError(
        "generation " + std::to_string(id) +
        " fails its content fingerprint: manifest says " +
        FingerprintToHex(fingerprint) + ", tables hash to " +
        FingerprintToHex(db->Fingerprint()));
  }

  LoadedGeneration out;
  out.id = id;
  out.db = std::move(db);
  out.fingerprint = fingerprint;
  if (const json::Value* annex = manifest.Find("annex"); annex != nullptr) {
    const fs::path annex_path = gen_dir / annex->GetString("file");
    QUARRY_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(annex_path));
    const json::Value* crc = annex->Find("crc");
    if (crc == nullptr ||
        static_cast<int64_t>(wal::Crc32(bytes.data(), bytes.size())) !=
            crc->as_int()) {
      return Status::ValidationError("annex of generation " +
                                     std::to_string(id) +
                                     " fails its manifest CRC");
    }
    QUARRY_ASSIGN_OR_RETURN(std::string_view payload, UnwrapSegment(bytes));
    out.annex_bytes = std::string(payload);
  }
  return out;
}

Status RemoveGenerationDir(const std::string& store_dir, uint64_t id) {
  QUARRY_FAULT_POINT("storage.generation.persist.remove");
  return RemoveAll(fs::path(store_dir) / GenerationDirName(id));
}

Result<LoadedGeneration> RecoverNewestGeneration(
    const std::string& store_dir, const GenerationValidator& validate,
    GenerationRecoveryStats* stats) {
  QUARRY_NAMED_SPAN(span, "generation_store.recover");
  const auto start = std::chrono::steady_clock::now();
  RecoverTotal().Increment();
  GenerationRecoveryStats local;
  GenerationRecoveryStats& out = stats != nullptr ? *stats : local;
  out = GenerationRecoveryStats();

  QUARRY_FAULT_POINT("storage.generation.recover.scan");
  std::vector<uint64_t> candidates;
  uint64_t max_seen = 0;
  {
    std::error_code ec;
    fs::directory_iterator it(store_dir, ec);
    if (ec) {
      return Status::ExecutionError("cannot scan generation store '" +
                                    store_dir + "': " + ec.message());
    }
    for (const fs::directory_entry& entry : it) {
      if (!entry.is_directory()) continue;
      bool quarantined = false;
      std::optional<uint64_t> id =
          ParseGenerationDirName(entry.path().filename().string(),
                                 &quarantined);
      if (!id.has_value()) continue;
      max_seen = std::max(max_seen, *id);
      if (!quarantined) candidates.push_back(*id);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](uint64_t a, uint64_t b) { return a > b; });

  LoadedGeneration recovered;
  size_t next_candidate = 0;
  for (; next_candidate < candidates.size(); ++next_candidate) {
    const uint64_t id = candidates[next_candidate];
    const fs::path gen_dir = fs::path(store_dir) / GenerationDirName(id);
    ++out.generations_scanned;
    std::error_code ec;
    if (!fs::exists(gen_dir / kManifestName, ec)) {
      // No commit record: a torn publish. O(1) discard.
      QUARRY_FAULT_POINT("storage.generation.recover.cleanup");
      QUARRY_RETURN_NOT_OK(RemoveAll(gen_dir));
      ++out.torn_discarded;
      RecoverDiscardedTotal().Increment();
      continue;
    }
    Result<LoadedGeneration> loaded = LoadGeneration(store_dir, id);
    Status verdict = loaded.status();
    if (verdict.ok() && validate != nullptr) verdict = validate(*loaded);
    if (verdict.ok()) {
      recovered = std::move(*loaded);
      ++next_candidate;
      break;
    }
    if (!IsCorruption(verdict)) {
      // IO-class failure: abort like a crash mid-recovery — nothing was
      // quarantined or removed wrongly, so re-running converges.
      return verdict.WithContext("recovering generation " +
                                 std::to_string(id));
    }
    // Committed but invalid: corruption. Set it aside for forensics and
    // fall back to the next-newest intact generation.
    const fs::path quarantine =
        fs::path(store_dir) / (GenerationDirName(id) + kQuarantineSuffix);
    QUARRY_RETURN_NOT_OK(RemoveAll(quarantine));
    fs::rename(gen_dir, quarantine, ec);
    if (ec) {
      return Status::ExecutionError("cannot quarantine '" +
                                    gen_dir.string() + "': " + ec.message());
    }
    out.quarantined.push_back({id, quarantine.string(), verdict.ToString()});
    RecoverQuarantinedTotal().Increment();
  }

  // Generations older than the recovered one are superseded: the store
  // would never serve or retire them, so dropping them here is what keeps
  // restarts from leaking disk.
  for (; next_candidate < candidates.size(); ++next_candidate) {
    QUARRY_FAULT_POINT("storage.generation.recover.cleanup");
    QUARRY_RETURN_NOT_OK(RemoveAll(
        fs::path(store_dir) / GenerationDirName(candidates[next_candidate])));
    ++out.older_removed;
  }

  recovered.max_seen_id = max_seen;
  out.recovered_generation = recovered.id;
  out.recovered_fingerprint = recovered.fingerprint;
  out.annex_recovered = !recovered.annex_bytes.empty();
  if (recovered.db != nullptr) {
    out.tables_loaded = recovered.db->num_tables();
    out.rows_loaded = recovered.db->TotalRows();
  }
  RecoverMicros().Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return recovered;
}

std::string GenerationRecoveryStats::ToString() const {
  std::ostringstream ss;
  ss << "scanned=" << generations_scanned
     << " recovered_generation=" << recovered_generation
     << " tables=" << tables_loaded << " rows=" << rows_loaded
     << " torn_discarded=" << torn_discarded
     << " older_removed=" << older_removed
     << " quarantined=" << quarantined.size()
     << " annex=" << (annex_recovered ? "yes" : "no");
  for (const QuarantinedGeneration& q : quarantined) {
    ss << " [gen-" << q.id << " -> " << q.path << ": " << q.reason << "]";
  }
  return ss.str();
}

}  // namespace quarry::storage::persist
