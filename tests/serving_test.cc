// Snapshot-isolated serving (docs/ROBUSTNESS.md §9): GenerationStore
// semantics, serve-while-refresh through core::Quarry, publish/retire fault
// handling, the admission gap regression, and request-lifecycle plumbing
// through the cube-query path. The multi-threaded chaos soak lives in
// serving_soak_test.cc.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/fault_injection.h"
#include "core/quarry.h"
#include "core/session.h"
#include "datagen/tpch.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "ontology/tpch_ontology.h"
#include "storage/generation_store.h"

namespace quarry::core {
namespace {

using req::InformationRequirement;
using storage::GenerationStore;
using storage::GenerationStoreStats;
using storage::Value;

int64_t CounterValue(const std::string& family, const obs::Labels& labels) {
  return obs::MetricsRegistry::Instance().counter(family, "", labels).value();
}

// --- GenerationStore ------------------------------------------------------

std::unique_ptr<storage::Database> TinyDb(int64_t marker) {
  auto db = std::make_unique<storage::Database>("w");
  storage::TableSchema schema("t");
  EXPECT_TRUE(schema.AddColumn({"k", storage::DataType::kInt64, false}).ok());
  auto table = db->CreateTable(std::move(schema));
  EXPECT_TRUE(table.ok());
  EXPECT_TRUE((*table)->Insert({Value::Int(marker)}).ok());
  return db;
}

int64_t Marker(const storage::Database& db) {
  return (*db.GetTable("t"))->rows()[0][0].as_int();
}

TEST(GenerationStoreTest, EmptyStoreHasNothingToPin) {
  GenerationStore store("w");
  EXPECT_EQ(store.current_generation(), 0u);
  EXPECT_FALSE(store.has_generation());
  EXPECT_TRUE(store.Acquire().status().IsNotFound());
  EXPECT_TRUE(store.AcquirePrevious().status().IsNotFound());
  EXPECT_TRUE(store.PublishedFingerprint(1).status().IsNotFound());
  // A build is a fresh database named after the store.
  std::unique_ptr<storage::Database> scratch = store.BeginEmptyBuild();
  EXPECT_EQ(scratch->name(), "w");
  EXPECT_EQ(scratch->num_tables(), 0u);
}

TEST(GenerationStoreTest, PublishRetainsCurrentAndPreviousOnly) {
  GenerationStore store("w");
  for (int64_t i = 1; i <= 3; ++i) {
    auto gen = store.Publish(TinyDb(i));
    ASSERT_TRUE(gen.ok()) << gen.status();
    EXPECT_EQ(*gen, static_cast<uint64_t>(i));
  }
  auto current = store.Acquire();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->generation(), 3u);
  EXPECT_EQ(Marker(current->db()), 3);
  auto previous = store.AcquirePrevious();
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(previous->generation(), 2u);
  EXPECT_EQ(Marker(previous->db()), 2);
  // Every published generation keeps its fingerprint on record.
  for (uint64_t g = 1; g <= 3; ++g) {
    EXPECT_TRUE(store.PublishedFingerprint(g).ok()) << g;
  }
  GenerationStoreStats stats = store.stats();
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(stats.retired, 1u);  // gen 1 fell off the current+previous window
  EXPECT_EQ(stats.live_generations, 2);
}

TEST(GenerationStoreTest, MemoryGaugeCountsASharedSegmentOnce) {
  obs::Gauge& gauge = obs::MetricsRegistry::Instance().gauge(
      "quarry_serving_generation_memory_bytes");
  GenerationStore store("mem");
  // Generation 1: four full chunks of (k INT PK, v DOUBLE).
  auto db = std::make_unique<storage::Database>("mem");
  storage::TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"k", storage::DataType::kInt64, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"v", storage::DataType::kDouble, true}).ok());
  ASSERT_TRUE(schema.SetPrimaryKey({"k"}).ok());
  auto rows = [](int64_t first, int64_t n) {
    std::vector<storage::Row> out;
    for (int64_t i = first; i < first + n; ++i) {
      out.push_back({Value::Int(i), Value::Double(0.5 * i)});
    }
    return out;
  };
  ASSERT_TRUE((*db->CreateTable(std::move(schema)))
                  ->InsertAll(rows(0, 4 * 1024))
                  .ok());
  const size_t first_bytes = db->MemoryBytes();
  ASSERT_TRUE(store.Publish(std::move(db)).ok());
  EXPECT_EQ(gauge.value(), static_cast<double>(first_bytes));

  // Generation 2: a clone of generation 1 that appends k rows. It shares
  // the four chunks, so the gauge grows by the new short chunk plus the
  // clone's own key set, not by a second copy.
  const int64_t k = 100;
  std::unique_ptr<storage::Database> next;
  std::unordered_set<const storage::ValueSegment*> counted;
  {
    auto pin = store.Acquire();
    ASSERT_TRUE(pin.ok());
    next = pin->db().Clone();
    pin->db().MemoryBytes(&counted);
  }
  ASSERT_TRUE((*next->GetTable("t"))->InsertAll(rows(10000, k)).ok());
  const std::unordered_set<const storage::ValueSegment*> first_segments =
      counted;
  const size_t added = next->MemoryBytes(&counted);
  size_t new_segment_bytes = 0;
  for (const storage::ValueSegment* seg : counted) {
    if (first_segments.count(seg) == 0) new_segment_bytes += seg->MemoryBytes();
  }
  ASSERT_TRUE(store.Publish(std::move(next)).ok());
  EXPECT_EQ(gauge.value(), static_cast<double>(first_bytes + added));
  // The new segments hold about k rows (an INT and a DOUBLE each).
  EXPECT_GE(new_segment_bytes, static_cast<size_t>(k) * 16);
  EXPECT_LE(new_segment_bytes, static_cast<size_t>(k) * 16 * 2);
  EXPECT_LT(new_segment_bytes * 10, first_bytes);
}

TEST(GenerationStoreTest, PinOutlivesRetirementOfItsGeneration) {
  GenerationStore store("w");
  ASSERT_TRUE(store.Publish(TinyDb(1)).ok());
  auto pin = store.Acquire();
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(store.Publish(TinyDb(2)).ok());
  ASSERT_TRUE(store.Publish(TinyDb(3)).ok());  // retires generation 1
  // The pinned snapshot is still alive and still reads its exact state.
  EXPECT_TRUE(pin->valid());
  EXPECT_EQ(pin->generation(), 1u);
  EXPECT_EQ(Marker(pin->db()), 1);
  EXPECT_EQ(store.stats().active_pins, 1);
  pin->Release();
  EXPECT_FALSE(pin->valid());
  EXPECT_EQ(store.stats().active_pins, 0);
}

TEST(GenerationStoreTest, ScratchWritesStayInvisibleUntilPublish) {
  GenerationStore store("w");
  ASSERT_TRUE(store.Publish(TinyDb(1)).ok());
  auto before = store.Acquire();
  ASSERT_TRUE(before.ok());
  const uint64_t fp_before = before->db().Fingerprint();
  std::unique_ptr<storage::Database> scratch = store.BeginEmptyBuild();
  storage::TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"k", storage::DataType::kInt64, false}).ok());
  auto table = scratch->CreateTable(std::move(schema));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert({Value::Int(42)}).ok());
  // The scratch writes are invisible until published.
  EXPECT_EQ(store.current_generation(), 1u);
  EXPECT_EQ(Marker(store.Acquire()->db()), 1);
  ASSERT_TRUE(store.Publish(std::move(scratch)).ok());
  EXPECT_EQ(Marker(store.Acquire()->db()), 42);
  // The old pin still reads the old snapshot, bit-identical.
  EXPECT_EQ(Marker(before->db()), 1);
  EXPECT_EQ(before->db().Fingerprint(), fp_before);
}

TEST(GenerationStoreTest, PublishFaultIsAnO1Rollback) {
  GenerationStore store("w");
  ASSERT_TRUE(store.Publish(TinyDb(1)).ok());
  const uint64_t fp_before = store.Acquire()->db().Fingerprint();

  fault::Injector::Instance().Enable(11);
  fault::Injector::Instance().Configure("storage.generation.publish",
                                        {0.0, /*trigger_on_hit=*/1, 0, -1});
  auto failed = store.Publish(TinyDb(2));
  EXPECT_FALSE(failed.ok());
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();

  // Nothing changed: same generation, bit-identical content, no leak.
  EXPECT_EQ(store.current_generation(), 1u);
  EXPECT_EQ(store.Acquire()->db().Fingerprint(), fp_before);
  GenerationStoreStats stats = store.stats();
  EXPECT_EQ(stats.publish_failures, 1u);
  EXPECT_EQ(stats.live_generations, 1);
  // The store is healthy afterwards; ids keep increasing.
  auto next = store.Publish(TinyDb(2));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 2u);
}

TEST(GenerationStoreTest, RetireFaultsDeferButNeverLeak) {
  GenerationStore store("w");
  fault::Injector::Instance().Enable(13);
  fault::Injector::Instance().Configure("storage.generation.retire",
                                        {0.0, 0, /*fail_from_hit=*/1, -1});
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store.Publish(TinyDb(i)).ok());
  }
  GenerationStoreStats during = store.stats();
  EXPECT_EQ(during.retired, 0u);
  EXPECT_GE(during.retires_deferred, 3u);
  // Deferred generations are still accounted live — parked, not leaked.
  EXPECT_EQ(during.live_generations, 2 + 3);

  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();
  EXPECT_EQ(store.DrainDeferredRetires(), 3);
  GenerationStoreStats after = store.stats();
  EXPECT_EQ(after.retired, 3u);
  EXPECT_EQ(after.live_generations, 2);
  EXPECT_EQ(after.active_pins, 0);
}

// --- the serving path through core::Quarry --------------------------------

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::PopulateTpch(&src_, {0.005, 29}).ok());
    quarry_ = MakeQuarry({});
  }

  void TearDown() override {
    fault::Injector::Instance().ClearConfigs();
    fault::Injector::Instance().Disable();
  }

  std::unique_ptr<Quarry> MakeQuarry(QuarryConfig config) {
    auto quarry = Quarry::Create(ontology::BuildTpchOntology(),
                                 ontology::BuildTpchMappings(), &src_,
                                 std::move(config));
    EXPECT_TRUE(quarry.ok()) << quarry.status();
    InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_type"});
    ir.dimensions.push_back({"Supplier.s_name"});
    EXPECT_TRUE((*quarry)->AddRequirement(ir).ok());
    return std::move(*quarry);
  }

  static olap::CubeQuery RevenueByType() {
    olap::CubeQuery query;
    query.fact = "fact_table_revenue";
    query.group_by = {"p_type"};
    query.measures = {{"revenue", md::AggFunc::kSum, "total"}};
    return query;
  }

  /// Grand total over a query result (sums the aggregate column).
  static double Total(const etl::Dataset& data) {
    double total = 0;
    for (const storage::Row& row : data.rows) {
      total += row[1].as_double();
    }
    return total;
  }

  /// New part + a lineitem selling it appear in the operational source.
  void GrowSource(int salt) {
    storage::Table* part = *src_.GetTable("part");
    int64_t new_partkey = static_cast<int64_t>(part->num_rows()) + 1;
    ASSERT_TRUE(part->Insert({Value::Int(new_partkey),
                              Value::String("part " + std::to_string(salt)),
                              Value::String("Brand#99"),
                              Value::String("SMALL"),
                              Value::Double(1234.5)})
                    .ok());
    storage::Table* lineitem = *src_.GetTable("lineitem");
    // (l_orderkey, l_linenumber) is the PK: salt the line number so repeated
    // growth rounds stay unique. Each round adds revenue of exactly
    // 100.0 * (1 - 0.0) = 100.0.
    ASSERT_TRUE(lineitem
                    ->Insert({Value::Int(1), Value::Int(1000 + salt),
                              Value::Int(new_partkey), Value::Int(1),
                              Value::Int(3), Value::Double(100.0),
                              Value::Double(0.0), Value::Double(0.0),
                              Value::DateYmd(1995, 6, 1), Value::String("N")})
                    .ok());
  }

  storage::Database src_;
  std::unique_ptr<Quarry> quarry_;
};

TEST_F(ServingTest, DeployServingPublishesTheFirstGeneration) {
  auto outcome = quarry_->DeployServing();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(quarry_->warehouse().current_generation(), 1u);
  EXPECT_TRUE(quarry_->warehouse().PublishedFingerprint(1).ok());

  auto result = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->generation, 1u);
  EXPECT_FALSE(result->stale);
  EXPECT_GT(result->data.rows.size(), 0u);
  EXPECT_GT(Total(result->data), 0.0);
}

TEST_F(ServingTest, QueriesKeepTheirSnapshotAcrossRefresh) {
  ASSERT_TRUE(quarry_->DeployServing().ok());
  auto pin = quarry_->warehouse().Acquire();
  ASSERT_TRUE(pin.ok());
  const uint64_t fp_gen1 = pin->db().Fingerprint();

  auto before = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(before.ok());
  GrowSource(1);
  auto refresh = quarry_->RefreshServing();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_EQ(quarry_->warehouse().current_generation(), 2u);

  // New queries see the new generation; the inserted lineitem adds revenue.
  auto after = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, 2u);
  EXPECT_NEAR(Total(after->data), Total(before->data) + 100.0, 1e-6);

  // The pre-refresh pin still reads generation 1, bit-identical.
  EXPECT_EQ(pin->db().Fingerprint(), fp_gen1);
  EXPECT_EQ(*quarry_->warehouse().PublishedFingerprint(1), fp_gen1);
}

TEST_F(ServingTest, RefreshServingRequiresADeployedGeneration) {
  EXPECT_TRUE(quarry_->RefreshServing().status().IsNotFound());
}

TEST_F(ServingTest, PublishFaultDuringRefreshKeepsServingTheOldGeneration) {
  ASSERT_TRUE(quarry_->DeployServing().ok());
  const uint64_t fp_before = quarry_->warehouse().Acquire()->db().Fingerprint();
  GrowSource(1);

  fault::Injector::Instance().Enable(17);
  fault::Injector::Instance().Configure("storage.generation.publish",
                                        {0.0, /*trigger_on_hit=*/1, 0, -1});
  EXPECT_FALSE(quarry_->RefreshServing().ok());
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();

  // O(1) rollback: the half-built scratch was discarded, the served
  // generation is byte-identical, and a later refresh succeeds.
  EXPECT_EQ(quarry_->warehouse().current_generation(), 1u);
  EXPECT_EQ(quarry_->warehouse().Acquire()->db().Fingerprint(), fp_before);
  auto retry = quarry_->RefreshServing();
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(quarry_->warehouse().current_generation(), 2u);
}

TEST_F(ServingTest, PublishFaultDuringDeployReportsThePublishStage) {
  const uint64_t store_before = quarry_->repository().store().Fingerprint();
  fault::Injector::Instance().Enable(19);
  fault::Injector::Instance().Configure("storage.generation.publish",
                                        {0.0, /*trigger_on_hit=*/1, 0, -1});
  auto outcome = quarry_->DeployServing();
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();

  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->success);
  ASSERT_TRUE(outcome->failure.has_value());
  EXPECT_EQ(outcome->failure->stage, "publish");
  EXPECT_TRUE(outcome->failure->rolled_back);
  EXPECT_FALSE(quarry_->warehouse().has_generation());
  // Nothing was published, so nothing is recorded as deployed either.
  EXPECT_EQ(quarry_->repository().store().Fingerprint(), store_before);

  // The instance recovers without any restore step.
  auto retry = quarry_->DeployServing();
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->success);
  EXPECT_EQ(quarry_->warehouse().current_generation(), 1u);
}

// A refresh that dies mid-flow, after every loader but the last committed
// into its scratch, never moves the served generation: readers keep seeing
// the last published state, never a half-refreshed one.
TEST_F(ServingTest, RefreshFaultNeverTearsTheServedGeneration) {
  ASSERT_TRUE(quarry_->DeployServing().ok());
  GrowSource(1);

  // Dry run: count the loader executions of a completed refresh.
  fault::Injector::Instance().Enable(23);
  ASSERT_TRUE(quarry_->RefreshServing().ok());
  const int64_t loader_runs =
      fault::Injector::Instance().HitCount("etl.exec.Loader.write");
  ASSERT_GE(loader_runs, 2) << "need >= 2 loaders for a torn state";
  fault::Injector::Instance().Disable();
  const uint64_t generation = quarry_->warehouse().current_generation();
  const uint64_t fp_served =
      quarry_->warehouse().Acquire()->db().Fingerprint();

  // Fail the LAST loader: every other table has committed by then.
  GrowSource(2);
  fault::Injector::Instance().Enable(23);  // reset counters
  fault::Injector::Instance().Configure("etl.exec.Loader.write",
                                        {0.0, loader_runs, 0, -1});
  EXPECT_FALSE(quarry_->RefreshServing().ok());
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();
  EXPECT_EQ(quarry_->warehouse().current_generation(), generation);
  EXPECT_EQ(quarry_->warehouse().Acquire()->db().Fingerprint(), fp_served);
}

// Every entry point passes the one gate: with its lane saturated, each of
// the six sheds with kOverloaded, writes exactly one request record of its
// kind carrying the shed status, and releases its tenant lease.
TEST_F(ServingTest, DirectRefreshAndDeployPassTheAdmissionGate) {
  QuarryConfig config;
  config.admission = {/*max_in_flight=*/1, /*max_queue_depth=*/0,
                      /*queue_timeout_millis=*/-1.0, /*lane=*/""};
  config.serving.query_admission = {/*max_in_flight=*/1,
                                    /*max_queue_depth=*/0,
                                    /*queue_timeout_millis=*/-1.0,
                                    /*lane=*/""};
  std::unique_ptr<Quarry> quarry = MakeQuarry(config);
  const std::string tenant = "gate_tenant";
  ASSERT_TRUE(quarry->RegisterTenant(tenant, TenantQuota{}).ok());
  ExecContext ctx;
  ctx.set_tenant(tenant);
  InformationRequirement ir = quarry->requirements().at("ir_revenue");
  ir.id = "ir_revenue_2";

  struct EntryPoint {
    const char* kind;
    std::function<Status()> call;
  };
  const EntryPoint entry_points[] = {
      {"requirement",
       [&] { return quarry->SubmitRequirement(ir, &ctx).status(); }},
      {"requirement",
       [&] {
         return quarry
             ->SubmitRequirementFromQuery(
                 "ANALYZE qty ON Lineitem MEASURE qty = Lineitem.l_quantity "
                 "SUM BY Part.p_type",
                 &ctx)
             .status();
       }},
      {"requirement_remove",
       [&] { return quarry->SubmitRemoveRequirement("ir_revenue", &ctx); }},
      {"deploy_serving",
       [&] { return quarry->DeployServing({}, &ctx).status(); }},
      {"refresh_serving",
       [&] { return quarry->RefreshServing(&ctx).status(); }},
      {"query",
       [&] { return quarry->SubmitQuery(RevenueByType(), {}, &ctx).status(); }},
  };

  auto design_slot = quarry->admission().Admit();
  auto query_slot = quarry->query_admission().Admit();
  ASSERT_TRUE(design_slot.ok());
  ASSERT_TRUE(query_slot.ok());
  obs::RequestLog& log = obs::RequestLog::Instance();
  for (const EntryPoint& entry : entry_points) {
    SCOPED_TRACE(entry.kind);
    const uint64_t recorded_before = log.total_recorded();
    EXPECT_TRUE(entry.call().IsOverloaded());
    ASSERT_EQ(log.total_recorded(), recorded_before + 1);
    const obs::RequestRecord record = log.Snapshot().back();
    EXPECT_EQ(record.kind, entry.kind);
    EXPECT_EQ(record.tenant, tenant);
    EXPECT_EQ(record.status, "Overloaded");
    for (const TenantStatus& status : quarry->tenants().Snapshot()) {
      if (status.id == tenant) {
        EXPECT_EQ(status.in_flight, 0);
      }
    }
  }
  design_slot->Release();
  query_slot->Release();

  auto outcome = quarry->DeployServing();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->success);
}

TEST_F(ServingTest, SubmitQueryHonoursTheRequestLifecycle) {
  ASSERT_TRUE(quarry_->DeployServing().ok());

  CancellationToken token;
  token.Cancel("caller went away");
  ExecContext cancelled(token, Deadline::Infinite());
  EXPECT_TRUE(
      quarry_->SubmitQuery(RevenueByType(), {}, &cancelled).status()
          .IsCancelled());

  ExecContext expired(Deadline::After(0));
  EXPECT_TRUE(
      quarry_->SubmitQuery(RevenueByType(), {}, &expired).status()
          .IsDeadlineExceeded());

  // The same plumbing reaches a standalone engine over a pinned generation
  // (the ExecContext parameter of CubeQueryEngine::Execute).
  auto pin = quarry_->warehouse().Acquire();
  ASSERT_TRUE(pin.ok());
  auto schema =
      std::static_pointer_cast<const md::MdSchema>(pin->annex());
  ASSERT_NE(schema, nullptr);
  olap::CubeQueryEngine engine(schema.get(), &quarry_->mapping(), &pin->db());
  EXPECT_TRUE(engine.Execute(RevenueByType(), &cancelled).status()
                  .IsCancelled());
  EXPECT_TRUE(engine.Execute(RevenueByType(), &expired).status()
                  .IsDeadlineExceeded());
  EXPECT_TRUE(engine.Execute(RevenueByType(), nullptr).ok());
}

TEST_F(ServingTest, QueryLaneShedsWithLabelledMetricsWhenSaturated) {
  QuarryConfig config;
  config.serving.query_admission = {/*max_in_flight=*/0, /*max_queue_depth=*/0,
                                    /*queue_timeout_millis=*/-1.0,
                                    /*lane=*/""};
  std::unique_ptr<Quarry> quarry = MakeQuarry(config);
  ASSERT_TRUE(quarry->DeployServing().ok());

  const obs::Labels shed_labels{{"lane", "query"}, {"reason", "queue_full"}};
  const int64_t shed_before =
      CounterValue("quarry_admission_shed_total", shed_labels);
  // Without allow_stale there is no degradation path: kOverloaded.
  EXPECT_TRUE(quarry->SubmitQuery(RevenueByType()).status().IsOverloaded());
  // With allow_stale but NO build in flight the result must still be
  // kOverloaded — stale reads are only for the serve-while-refresh window.
  EXPECT_TRUE(quarry->SubmitQuery(RevenueByType(), {/*allow_stale=*/true})
                  .status()
                  .IsOverloaded());
  EXPECT_EQ(CounterValue("quarry_admission_shed_total", shed_labels),
            shed_before + 2);
}

TEST_F(ServingTest, ColdStartRecoveryServesWithoutRebuildingTheWarehouse) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "quarry_serving_coldstart").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // First process lifetime: durable serving session, deploy, one answer.
  ASSERT_TRUE(
      quarry_->EnableServingDurability(dir + "/" + kWarehouseSubdir).ok());
  auto outcome = quarry_->DeployServing();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->success);
  EXPECT_EQ(outcome->published_generation, 1u);
  ASSERT_TRUE(SaveSession(*quarry_, dir).ok());
  auto before = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(before.ok()) << before.status();
  const uint64_t fp = quarry_->warehouse().Acquire()->db().Fingerprint();
  quarry_.reset();  // "process exit"

  // Cold start: both substrates recover; no ETL runs before first answer.
  RecoveryReport report;
  auto restarted = OpenDurableServingSession(dir, &src_, {}, &report);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  EXPECT_EQ(report.warehouse.recovered_generation, 1u);
  EXPECT_EQ(report.warehouse.recovered_fingerprint, fp);
  EXPECT_TRUE(report.warehouse.annex_recovered);
  EXPECT_TRUE(report.warehouse.quarantined.empty());
  EXPECT_EQ((*restarted)->recovery_report().warehouse.recovered_generation,
            1u);
  EXPECT_EQ((*restarted)->warehouse().current_generation(), 1u);
  EXPECT_EQ((*restarted)->warehouse().Acquire()->db().Fingerprint(), fp);

  // The recovered generation answers byte-identically, same generation id.
  auto after = (*restarted)->SubmitQuery(RevenueByType());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->generation, before->generation);
  EXPECT_NEAR(Total(after->data), Total(before->data), 1e-9);

  // The annex (the deployed xMD document) survived too: a refresh runs
  // against the recovered schema and commits generation 2 durably.
  GrowSource(7);
  auto refresh = (*restarted)->RefreshServing();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_EQ((*restarted)->warehouse().current_generation(), 2u);
  auto grown = (*restarted)->SubmitQuery(RevenueByType());
  ASSERT_TRUE(grown.ok());
  EXPECT_NEAR(Total(grown->data), Total(before->data) + 100.0, 1e-6);
  EXPECT_TRUE(
      fs::exists(dir + "/" + kWarehouseSubdir + "/gen-2/MANIFEST.json"));
}

}  // namespace
}  // namespace quarry::core
