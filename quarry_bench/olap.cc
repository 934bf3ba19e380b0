// olap_read and olap_refresh: analysts querying a published warehouse
// generation, alone or beside a writer that grows the source and refreshes.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "harness.h"
#include "obs/trace.h"
#include "requirements/workload.h"

namespace quarry::bench {

namespace {

const char* const kAnalysts[] = {"analyst-1", "analyst-2"};

// TPC-H scale factor. At 0.02 the pool's facts hold 6k to 120k rows, so
// the query median tracks per-query overhead and the throughput, set by
// the mean, tracks scan cost; a refresh re-runs the whole flow over 2.5M
// input rows.
constexpr double kScaleFactor = 0.02;
constexpr double kSmokeScaleFactor = 0.002;

// Lineitems per refresh batch, spread over new orders of one to seven lines
// each -- the shape of TPC-H's RF1 insert, on existing customers, parts
// and suppliers.
constexpr int kLinesPerBatch = 100;

uint64_t AnswerHash(const etl::Dataset& data) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the value hashes
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (const std::string& column : data.columns) {
    mix(std::hash<std::string>{}(column));
  }
  for (const storage::Row& row : data.rows) {
    for (const storage::Value& value : row) mix(value.Hash());
  }
  mix(data.rows.size());
  return h;
}

/// Every (fact, attribute at the fact's grain) pair, summing all of the
/// fact's measures, over the facts `db` holds rows of. A query over an
/// empty fact fails (README.md, known findings); the pool's one slicer that
/// can empty a fact, a nation, does so only at small scale factors.
std::vector<olap::CubeQuery> QueryTemplates(const md::MdSchema& schema,
                                            const storage::Database& db) {
  std::vector<olap::CubeQuery> templates;
  for (const md::Fact& fact : schema.facts()) {
    Result<const storage::Table*> table = db.GetTable(fact.name);
    if (!table.ok() || (*table)->num_rows() == 0) continue;
    for (const md::DimensionRef& ref : fact.dimension_refs) {
      Result<const md::Dimension*> dim = schema.GetDimension(ref.dimension);
      if (!dim.ok()) continue;
      const md::Level* level = (*dim)->FindLevel(ref.level);
      if (level == nullptr) continue;
      for (const md::LevelAttribute& attribute : level->attributes) {
        olap::CubeQuery query;
        query.fact = fact.name;
        query.group_by = {attribute.name};
        for (const md::Measure& m : fact.measures) {
          query.measures.push_back({m.name, md::AggFunc::kSum, ""});
        }
        templates.push_back(std::move(query));
      }
    }
  }
  return templates;
}

std::string Describe(const olap::CubeQuery& query) {
  return query.fact + " by " + query.group_by.front();
}

Status SubmitPool(core::Quarry* quarry) {
  req::WorkloadConfig pool;
  pool.num_requirements = 4;
  pool.overlap = 0.5;
  pool.seed = kDesignSeed;
  for (const req::InformationRequirement& ir :
       req::GenerateTpchWorkload(pool)) {
    QUARRY_RETURN_NOT_OK(quarry->SubmitRequirement(ir).status());
  }
  return Status::OK();
}

/// Input rows of every plan node of a query profile, each node once.
void SumRowsIn(const std::vector<obs::ProfileNode>& nodes,
               std::set<std::string>* seen, double* rows_in) {
  for (const obs::ProfileNode& node : nodes) {
    if (!seen->insert(node.id).second) continue;
    *rows_in += static_cast<double>(node.rows_in);
    SumRowsIn(node.children, seen, rows_in);
  }
}

/// Per fact of the published generation: primary key -> measure values.
using FactRows =
    std::map<std::string, std::map<std::string, std::vector<storage::Value>>>;

Result<FactRows> PublishedFactRows(const core::Quarry& quarry) {
  QUARRY_ASSIGN_OR_RETURN(storage::GenerationStore::Pin pin,
                          quarry.warehouse().Acquire());
  auto schema = std::static_pointer_cast<const md::MdSchema>(pin.annex());
  if (schema == nullptr) return Status::Internal("generation has no schema");
  FactRows out;
  for (const md::Fact& fact : schema->facts()) {
    QUARRY_ASSIGN_OR_RETURN(const storage::Table* table,
                            pin.db().GetTable(fact.name));
    const std::vector<size_t> key = table->schema().PrimaryKeyIndexes();
    if (key.empty()) {
      return Status::Internal("fact table " + fact.name + " has no key");
    }
    std::vector<size_t> measures;
    for (const md::Measure& m : fact.measures) {
      std::optional<size_t> column = table->schema().ColumnIndex(m.name);
      if (!column) return Status::NotFound("measure column " + m.name);
      measures.push_back(*column);
    }
    auto& rows = out[fact.name];
    for (const storage::Row& row : table->rows()) {
      std::string k;
      for (size_t c : key) k += row[c].ToString() + '\x1f';
      std::vector<storage::Value>& values = rows[k];
      for (size_t c : measures) values.push_back(row[c]);
    }
  }
  return out;
}

bool SameMeasure(const storage::Value& a, const storage::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  // Sums over differently ordered rows may differ in the last bits.
  const double x = a.as_double();
  const double y = b.as_double();
  return std::abs(x - y) <= 1e-9 * std::max({1.0, std::abs(x), std::abs(y)});
}

/// Shared set-up: TPC-H source, the pool's four requirements, one
/// DeployServing, and a warm-up pass that records each template's answer.
class OlapWorkload : public Workload {
 public:
  explicit OlapWorkload(const Options& options)
      : options_(options),
        scale_factor_(options.smoke ? kSmokeScaleFactor : kScaleFactor) {}

  Status Setup(int index, LayerSamples* samples) override {
    quarry_.reset();  // it points into source_
    source_ = std::make_unique<storage::Database>("tpch");
    const auto start = Clock::now();
    QUARRY_RETURN_NOT_OK(
        datagen::PopulateTpch(source_.get(), {scale_factor_, kDesignSeed}));
    if (samples != nullptr) {
      samples->Add("datagen.populate_s", MillisSince(start) / 1e3);
    }
    QUARRY_ASSIGN_OR_RETURN(quarry_, CreateTpchQuarry(source_.get()));
    for (const char* tenant : {"analyst-1", "analyst-2", "ops"}) {
      QUARRY_RETURN_NOT_OK(quarry_->RegisterTenant(tenant, {}));
    }
    QUARRY_RETURN_NOT_OK(SubmitPool(quarry_.get()));
    QUARRY_RETURN_NOT_OK(BeforeDeploy(index));
    QUARRY_ASSIGN_OR_RETURN(deployer::DeploymentOutcome deployed,
                            quarry_->DeployServing());
    if (!deployed.success) {
      return deployed.failure ? deployed.failure->cause
                              : Status::Internal("deploy failed");
    }
    {
      QUARRY_ASSIGN_OR_RETURN(storage::GenerationStore::Pin pin,
                              quarry_->warehouse().Acquire());
      templates_ = QueryTemplates(quarry_->schema(), pin.db());
    }
    reference_.clear();
    for (const olap::CubeQuery& query : templates_) {
      QUARRY_ASSIGN_OR_RETURN(core::QueryResult result,
                              quarry_->SubmitQuery(query));
      reference_.push_back(AnswerHash(result.data));
    }
    rngs_.clear();
    for (uint64_t i = 0; i < 2; ++i) {
      rngs_.emplace_back(options_.seed * 1000003 + i);
    }
    return AfterWarmup();
  }

 protected:
  virtual Status BeforeDeploy(int /*index*/) { return Status::OK(); }
  virtual Status AfterWarmup() { return Status::OK(); }

  struct TimedQuery {
    Result<core::QueryResult> result;
    Clock::time_point start;
    Clock::time_point end;
    double cpu_millis;
  };

  /// SubmitQuery of template `t` as `tenant`, timed. In the traced half the
  /// per-query samples follow, untimed: the pin and compile the entry point
  /// makes inside are timed by the same public calls beside it.
  TimedQuery Query(size_t t, const char* tenant, bool allow_stale,
                   LayerSamples* samples) {
    ExecContext ctx;
    ctx.set_tenant(tenant);
    core::QueryOptions query_options;
    query_options.allow_stale = allow_stale;
    const double cpu = ThreadCpuMillis();
    const auto start = Clock::now();
    Result<core::QueryResult> result = [&] {
      QUARRY_SPAN("bench.SubmitQuery");
      return quarry_->SubmitQuery(templates_[t], query_options, &ctx);
    }();
    TimedQuery timed{std::move(result), start, Clock::now(),
                     ThreadCpuMillis() - cpu};
    if (samples != nullptr && timed.result.ok()) {
      SampleQuery(t, *timed.result, samples);
    }
    return timed;
  }

  /// The fingerprints of the generations set-up published.
  void AddSetupFingerprints(Phase* phase) const {
    const storage::GenerationStore& store = quarry_->warehouse();
    for (uint64_t g = 1; g <= store.current_generation(); ++g) {
      Result<uint64_t> fingerprint = store.PublishedFingerprint(g);
      if (fingerprint.ok()) phase->AddFingerprint(*fingerprint);
    }
  }

  /// The next template order of analyst `index`: whole seeded permutations,
  /// so every template carries the same weight whatever the run length.
  std::vector<size_t> NextOrder(int index) {
    std::vector<size_t> order(templates_.size());
    std::iota(order.begin(), order.end(), 0);
    Shuffle(&order, &rngs_[static_cast<size_t>(index)]);
    return order;
  }

  const Options options_;
  const double scale_factor_;
  std::unique_ptr<storage::Database> source_;
  std::unique_ptr<core::Quarry> quarry_;
  std::vector<olap::CubeQuery> templates_;
  std::vector<uint64_t> reference_;  ///< Generation-1 answer per template.
  std::vector<Prng> rngs_;           ///< Per analyst.

 private:
  void SampleQuery(size_t t, const core::QueryResult& result,
                   LayerSamples* samples) {
    SampleStore(quarry_->warehouse(), samples);
    auto start = Clock::now();
    Result<storage::GenerationStore::Pin> pin = quarry_->warehouse().Acquire();
    samples->Add("storage.pin_us", MillisSince(start) * 1e3);
    if (pin.ok()) {
      auto schema = std::static_pointer_cast<const md::MdSchema>(pin->annex());
      if (schema != nullptr) {
        olap::CubeQueryEngine engine(schema.get(), &quarry_->mapping(),
                                     &pin->db());
        start = Clock::now();
        if (engine.Compile(templates_[t]).ok()) {
          samples->Add("olap.compile_us", MillisSince(start) * 1e3);
        }
      }
    }
    std::set<std::string> seen;
    double rows_in = 0;
    SumRowsIn(result.profile.roots, &seen, &rows_in);
    samples->Add("olap.rows_examined_per_result_row",
                 rows_in / static_cast<double>(
                               std::max<size_t>(1, result.data.rows.size())));
  }
};

/// Two closed-loop analysts, each issuing whole seeded permutations of the
/// templates with no think time; nothing writes.
class OlapRead : public OlapWorkload {
 public:
  explicit OlapRead(const Options& options) : OlapWorkload(options) {}

  void Run(Clock::time_point deadline, LayerSamples* samples,
           Phase* phase) override {
    AddSetupFingerprints(phase);
    std::vector<std::thread> analysts;
    for (int i = 0; i < 2; ++i) {
      analysts.emplace_back([this, i, deadline, samples, phase] {
        PinThread(1 + static_cast<size_t>(i));
        while (Clock::now() < deadline) Permutation(i, samples, phase);
      });
    }
    for (std::thread& t : analysts) t.join();
  }

  void Check(LayerSamples* /*samples*/, Phase* phase) override {
    phase->SetDetail("templates", static_cast<double>(templates_.size()));
  }

 private:
  void Permutation(int index, LayerSamples* samples, Phase* phase) {
    for (size_t t : NextOrder(index)) {
      phase->Attempt();
      TimedQuery q = Query(t, kAnalysts[index], /*allow_stale=*/false, samples);
      if (!q.result.ok()) {
        phase->Fail("query " + Describe(templates_[t]) + ": " +
                    q.result.status().ToString());
        continue;
      }
      phase->AddOp(q.start, q.end, q.cpu_millis, t);
      if (AnswerHash(q.result->data) != reference_[t]) {
        phase->Fail("query " + Describe(templates_[t]) +
                    ": answer differs from the set-up reference");
      }
    }
  }
};

/// The same analysts (allowed stale reads) beside an "ops" writer that
/// appends a seeded batch to the source and refreshes, on a durable
/// warehouse. The writer's refreshes are the measured operations; the
/// analysts' queries are the "query" stream of the detail line.
class OlapRefresh : public OlapWorkload {
 public:
  OlapRefresh(const Options& options, std::string dir)
      : OlapWorkload(options), dir_(std::move(dir)) {}

  void Run(Clock::time_point deadline, LayerSamples* samples,
           Phase* phase) override {
    AddSetupFingerprints(phase);
    std::atomic<bool> writer_done{false};
    std::vector<std::thread> analysts;
    for (int i = 0; i < 2; ++i) {
      analysts.emplace_back([this, i, &writer_done, samples, phase] {
        PinThread(1 + static_cast<size_t>(i));
        Analyst(i, writer_done, samples, phase);
      });
    }
    while (Clock::now() < deadline) {
      if (!RefreshOnce(samples, phase)) break;
    }
    writer_done.store(true);
    for (std::thread& t : analysts) t.join();
  }

  /// The final generation must hold exactly the fact rows (by key) of a
  /// fresh DeployServing over the grown source. Rows whose measures differ
  /// from the fresh deploy's are counted, not failed: RefreshServing's
  /// loaders skip keys already loaded (Quarry::Refresh documents it), so a
  /// batch row landing in an existing group leaves that group's measures as
  /// they were (README.md, known findings).
  void Check(LayerSamples* samples, Phase* phase) override {
    phase->SetDetail("templates", static_cast<double>(templates_.size()));
    phase->Attempt();
    int64_t stale = 0;
    int64_t rows = 0;
    Status status = [&]() -> Status {
      QUARRY_ASSIGN_OR_RETURN(FactRows refreshed, PublishedFactRows(*quarry_));
      QUARRY_ASSIGN_OR_RETURN(std::unique_ptr<core::Quarry> fresh,
                              CreateTpchQuarry(source_.get()));
      QUARRY_RETURN_NOT_OK(SubmitPool(fresh.get()));
      QUARRY_ASSIGN_OR_RETURN(deployer::DeploymentOutcome deployed,
                              fresh->DeployServing());
      if (!deployed.success) return Status::Internal("fresh deploy failed");
      QUARRY_ASSIGN_OR_RETURN(FactRows expected, PublishedFactRows(*fresh));
      if (refreshed.size() != expected.size()) {
        return Status::Internal("the refreshed and fresh generations differ "
                                "in their facts");
      }
      for (const auto& [fact, expected_rows] : expected) {
        const auto& got = refreshed[fact];
        if (got.size() != expected_rows.size()) {
          return Status::Internal(
              "fact " + fact + " holds " + std::to_string(got.size()) +
              " rows after the refreshes, a fresh deploy " +
              std::to_string(expected_rows.size()));
        }
        for (const auto& [key, values] : expected_rows) {
          auto it = got.find(key);
          if (it == got.end()) {
            return Status::Internal("fact " + fact +
                                    " misses a key a fresh deploy loads");
          }
          ++rows;
          for (size_t m = 0; m < values.size(); ++m) {
            if (!SameMeasure(values[m], it->second[m])) {
              ++stale;
              break;
            }
          }
        }
      }
      return Status::OK();
    }();
    if (!status.ok()) phase->Fail("refresh check: " + status.ToString());
    phase->SetDetail("fact_rows", static_cast<double>(rows));
    phase->SetDetail("stale_fact_rows", static_cast<double>(stale));
    if (samples != nullptr) {
      samples->Add("deployer.refresh_stale_rows", static_cast<double>(stale));
    }
  }

 protected:
  /// A fresh durable directory per set-up.
  Status BeforeDeploy(int index) override {
    const std::string dir = dir_ + "/warehouse-" + std::to_string(index);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    if (ec) return Status::Internal("create " + dir + ": " + ec.message());
    return quarry_->EnableServingDurability(dir);
  }

  /// Resets the batch generator and runs one refresh with no source change,
  /// so the first measured refresh pays no one-time cost.
  Status AfterWarmup() override {
    batch_ = 0;
    const storage::Table* orders = *source_->GetTable("orders");
    next_orderkey_ = static_cast<int64_t>(orders->num_rows()) + 1;
    customers_ =
        static_cast<int64_t>((*source_->GetTable("customer"))->num_rows());
    suppliers_of_part_.clear();
    for (const storage::Row& row : (*source_->GetTable("partsupp"))->rows()) {
      suppliers_of_part_[row[0].as_int()].push_back(row[1].as_int());
    }
    {
      std::lock_guard<std::mutex> lock(answers_mu_);
      answers_.clear();
      for (size_t t = 0; t < reference_.size(); ++t) {
        answers_[{1, t}] = reference_[t];
      }
    }
    ExecContext ctx;
    ctx.set_tenant("ops");
    return quarry_->RefreshServing(&ctx).status();
  }

 private:
  /// One batch and its refresh; false when the batch could not be made.
  bool RefreshOnce(LayerSamples* samples, Phase* phase) {
    phase->Attempt();
    if (Status appended = AppendBatch(); !appended.ok()) {
      phase->Fail("append batch: " + appended.ToString());
      return false;
    }
    ExecContext ctx;
    ctx.set_tenant("ops");
    const double cpu = ThreadCpuMillis();
    const auto start = Clock::now();
    Result<etl::ExecutionReport> report = [&] {
      QUARRY_SPAN("bench.RefreshServing");
      return quarry_->RefreshServing(&ctx);
    }();
    const auto end = Clock::now();
    const double cpu_millis = ThreadCpuMillis() - cpu;
    if (!report.ok()) {
      phase->Fail("refresh: " + report.status().ToString());
      return true;
    }
    phase->AddOp(start, end, cpu_millis);
    const storage::GenerationStore& store = quarry_->warehouse();
    phase->AddFingerprint(
        store.PublishedFingerprint(store.current_generation()).value_or(0));
    if (samples != nullptr) SamplePublished(store, samples);
    return true;
  }

  /// Queries until the writer is done. Every answer for one (generation,
  /// template) pair must be the same.
  void Analyst(int index, const std::atomic<bool>& writer_done,
               LayerSamples* samples, Phase* phase) {
    while (!writer_done.load()) {
      for (size_t t : NextOrder(index)) {
        if (writer_done.load()) break;
        phase->Attempt();
        TimedQuery q =
            Query(t, kAnalysts[index], /*allow_stale=*/true, samples);
        if (!q.result.ok()) {
          phase->Fail("query " + Describe(templates_[t]) + ": " +
                      q.result.status().ToString());
          continue;
        }
        phase->AddSecondary(
            "query",
            std::chrono::duration<double, std::milli>(q.end - q.start).count());
        const uint64_t hash = AnswerHash(q.result->data);
        std::lock_guard<std::mutex> lock(answers_mu_);
        auto [it, inserted] = answers_.emplace(
            std::make_pair(q.result->generation, t), hash);
        if (!inserted && it->second != hash) {
          phase->Fail("query " + Describe(templates_[t]) + " on generation " +
                      std::to_string(q.result->generation) +
                      ": answer differs from an earlier one");
        }
      }
    }
  }

  /// Appends new orders with kLinesPerBatch lineitems in all, drawn from
  /// (seed, batch index): existing customers, parts and the suppliers that
  /// offer each part, as the generator draws them. Only the writer thread
  /// touches the source.
  Status AppendBatch() {
    Prng rng(options_.seed * 7919 + static_cast<uint64_t>(batch_++));
    storage::Table* orders = *source_->GetTable("orders");
    storage::Table* lineitem = *source_->GetTable("lineitem");
    const auto parts = static_cast<int64_t>(suppliers_of_part_.size());
    const int32_t first_day = storage::DaysFromCivil(1992, 1, 1);
    const int32_t last_day = storage::DaysFromCivil(1998, 8, 2);
    using storage::Value;
    for (int lines_left = kLinesPerBatch; lines_left > 0;) {
      const int64_t orderkey = next_orderkey_++;
      const auto order_date =
          static_cast<int32_t>(rng.Uniform(first_day, last_day));
      const int64_t lines = std::min<int64_t>(rng.Uniform(1, 7), lines_left);
      double total = 0;
      for (int64_t l = 1; l <= lines; ++l) {
        const int64_t partkey = rng.Uniform(1, parts);
        const std::vector<int64_t>& offers = suppliers_of_part_[partkey];
        const int64_t suppkey = offers[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(offers.size()) - 1))];
        const int64_t quantity = rng.Uniform(1, 50);
        const double extended = static_cast<double>(quantity) *
                                (900.0 + static_cast<double>(partkey % 1000));
        const double discount = static_cast<double>(rng.Uniform(0, 10)) / 100;
        const double tax = static_cast<double>(rng.Uniform(0, 8)) / 100;
        total += extended * (1.0 - discount) * (1.0 + tax);
        QUARRY_RETURN_NOT_OK(lineitem->Insert(
            {Value::Int(orderkey), Value::Int(l), Value::Int(partkey),
             Value::Int(suppkey), Value::Int(quantity),
             Value::Double(extended), Value::Double(discount),
             Value::Double(tax),
             Value::Date(order_date +
                         static_cast<int32_t>(rng.Uniform(1, 121))),
             Value::String(rng.Chance(0.25) ? "R"
                                            : (rng.Chance(0.5) ? "A" : "N"))}));
      }
      QUARRY_RETURN_NOT_OK(orders->Insert(
          {Value::Int(orderkey), Value::Int(rng.Uniform(1, customers_)),
           Value::String(rng.Chance(0.5) ? "O" : "F"), Value::Double(total),
           Value::Date(order_date)}));
      lines_left -= static_cast<int>(lines);
    }
    return Status::OK();
  }

  const std::string dir_;
  int batch_ = 0;
  int64_t next_orderkey_ = 0;
  int64_t customers_ = 0;
  /// Suppliers offering each part (partsupp), by part key.
  std::map<int64_t, std::vector<int64_t>> suppliers_of_part_;
  std::mutex answers_mu_;
  /// First answer hash seen per (generation, template).
  std::map<std::pair<uint64_t, size_t>, uint64_t> answers_;
};

}  // namespace

std::unique_ptr<Workload> MakeOlapRead(const Options& options) {
  return std::make_unique<OlapRead>(options);
}

std::unique_ptr<Workload> MakeOlapRefresh(const Options& options,
                                          const std::string& dir) {
  return std::make_unique<OlapRefresh>(options, dir);
}

}  // namespace quarry::bench
