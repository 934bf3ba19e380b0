#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>

#include "datagen/tpch.h"
#include "deployer/deployer.h"
#include "deployer/sql_generator.h"
#include "docstore/document_store.h"
#include "integrator/design_integrator.h"
#include "interpreter/interpreter.h"
#include "obs/metrics.h"
#include "ontology/tpch_ontology.h"
#include "storage/sql.h"

namespace quarry {
namespace {

using deployer::Deployer;
using deployer::DeploymentOutcome;
using deployer::DeployOptions;
using fault::Injector;
using fault::SiteConfig;
using interpreter::Interpreter;
using req::InformationRequirement;

/// The fault matrix runs the full transactional deployment scenario — DDL,
/// ETL, integrity check, metadata record — against a TPC-H source, once per
/// discovered fault site, and asserts the robustness contract of
/// docs/ROBUSTNESS.md: a transient fault is absorbed by retries, an
/// unrecoverable one leaves the target database as empty as it started and
/// rolls the metadata store back bit-identically to its pre-deploy snapshot.
class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : onto_(ontology::BuildTpchOntology()),
        mapping_(ontology::BuildTpchMappings()),
        interpreter_(&onto_, &mapping_) {
    EXPECT_TRUE(datagen::PopulateTpch(&src_, {0.005, 23}).ok());
    auto design = interpreter_.Interpret(RevenueIr());
    EXPECT_TRUE(design.ok()) << design.status();
    design_ = std::move(*design);
  }

  void TearDown() override {
    Injector::Instance().Disable();
    Injector::Instance().ClearConfigs();
  }

  static InformationRequirement RevenueIr() {
    InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_name"});
    ir.dimensions.push_back({"Supplier.s_name"});
    return ir;
  }

  /// A metadata store with pre-existing content, so a rollback that merely
  /// cleared it would be caught by the fingerprint comparison.
  static docstore::DocumentStore SeededMetadata() {
    docstore::DocumentStore meta;
    json::Object doc;
    doc.emplace_back("_id", json::Value("onto"));
    doc.emplace_back("kind", json::Value("ontology"));
    EXPECT_TRUE(meta.GetOrCreate("ontologies")
                    ->Upsert("onto", json::Value(std::move(doc)))
                    .ok());
    return meta;
  }

  DeploymentOutcome Deploy(storage::Database* target,
                           docstore::DocumentStore* meta,
                           DeployOptions options = {}) {
    options.metadata = meta;
    Deployer dep(&src_, target);
    auto outcome =
        dep.DeployTransactional(design_.schema, design_.flow, mapping_,
                                options);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return std::move(*outcome);
  }

  /// Runs the scenario once with injection enabled and no site configured:
  /// HitSites() then enumerates the deployment's entire fault surface.
  std::vector<std::string> DiscoverSites() {
    Injector::Instance().Disable();
    storage::Database target;
    docstore::DocumentStore meta = SeededMetadata();
    Injector::Instance().ClearConfigs();
    Injector::Instance().Enable(/*seed=*/7);
    DeploymentOutcome outcome = Deploy(&target, &meta);
    EXPECT_TRUE(outcome.success);
    return Injector::Instance().HitSites();
  }

  ontology::Ontology onto_;
  ontology::SourceMapping mapping_;
  Interpreter interpreter_;
  storage::Database src_;
  interpreter::PartialDesign design_;
};

// ---------------------------------------------------------------------------
// Injector semantics.

TEST_F(FaultInjectionTest, TriggerSemantics) {
  Injector& inj = Injector::Instance();
  inj.Enable(1);
  inj.Configure("t", {.trigger_on_hit = 2});
  EXPECT_TRUE(fault::Check("t").ok());
  EXPECT_FALSE(fault::Check("t").ok());  // exactly the 2nd hit
  EXPECT_TRUE(fault::Check("t").ok());
  EXPECT_EQ(inj.FailureCount("t"), 1);

  inj.Configure("f", {.fail_from_hit = 3});
  EXPECT_TRUE(fault::Check("f").ok());
  EXPECT_TRUE(fault::Check("f").ok());
  EXPECT_FALSE(fault::Check("f").ok());  // every hit >= 3
  EXPECT_FALSE(fault::Check("f").ok());

  inj.Configure("capped", {.fail_from_hit = 1, .max_failures = 2});
  EXPECT_FALSE(fault::Check("capped").ok());
  EXPECT_FALSE(fault::Check("capped").ok());
  EXPECT_TRUE(fault::Check("capped").ok());  // cap reached

  // Unconfigured sites never fail but are still counted.
  EXPECT_TRUE(fault::Check("quiet").ok());
  EXPECT_EQ(inj.HitCount("quiet"), 1);

  inj.Disable();
  EXPECT_TRUE(fault::Check("f").ok() || true);  // macro path is a no-op
}

TEST_F(FaultInjectionTest, ProbabilityFaultsAreSeedDeterministic) {
  Injector& inj = Injector::Instance();
  inj.Configure("p", {.probability = 0.3});
  inj.Enable(99);
  for (int i = 0; i < 200; ++i) (void)fault::Check("p");
  std::vector<std::string> first = inj.FailureLog();
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 200u);

  inj.Enable(99);  // same seed, configs kept -> identical replay
  for (int i = 0; i < 200; ++i) (void)fault::Check("p");
  EXPECT_EQ(inj.FailureLog(), first);

  inj.Enable(100);  // different seed -> different sequence
  for (int i = 0; i < 200; ++i) (void)fault::Check("p");
  EXPECT_NE(inj.FailureLog(), first);
}

TEST_F(FaultInjectionTest, BackoffIsDeterministicExponentialWithJitter) {
  etl::RetryPolicy policy;
  policy.base_backoff_millis = 4.0;
  policy.max_backoff_millis = 64.0;
  policy.jitter_fraction = 0.5;
  policy.jitter_seed = 7;

  Prng a(policy.jitter_seed), b(policy.jitter_seed);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    double first = etl::RetryBackoffMillis(policy, attempt, &a);
    double second = etl::RetryBackoffMillis(policy, attempt, &b);
    EXPECT_DOUBLE_EQ(first, second);  // same seed -> same jitter
    double cap = std::min(4.0 * std::pow(2.0, attempt - 1), 64.0);
    EXPECT_GE(first, 0.5 * cap);  // jitter shrinks at most jitter_fraction
    EXPECT_LE(first, cap);
  }

  // Without jitter the schedule is exactly base * 2^(n-1), capped.
  policy.jitter_fraction = 0.0;
  Prng c(policy.jitter_seed);
  EXPECT_DOUBLE_EQ(etl::RetryBackoffMillis(policy, 1, &c), 4.0);
  EXPECT_DOUBLE_EQ(etl::RetryBackoffMillis(policy, 2, &c), 8.0);
  EXPECT_DOUBLE_EQ(etl::RetryBackoffMillis(policy, 5, &c), 64.0);
  EXPECT_DOUBLE_EQ(etl::RetryBackoffMillis(policy, 9, &c), 64.0);

  // A zero base disables sleeping but still consumes one draw per retry,
  // so enabling backoff later does not shift the fault sequence.
  policy.base_backoff_millis = 0.0;
  Prng d(11), e(11);
  EXPECT_DOUBLE_EQ(etl::RetryBackoffMillis(policy, 1, &d), 0.0);
  (void)e.UniformDouble();
  EXPECT_EQ(d.Next(), e.Next());
}

// ---------------------------------------------------------------------------
// Executor resilience.

TEST_F(FaultInjectionTest, ExecutionErrorsCarryNodeIdAndOperatorType) {
  Injector::Instance().Enable(1);
  Injector::Instance().Configure("etl.exec.Join", {.fail_from_hit = 1});

  storage::Database target;
  docstore::DocumentStore meta;
  DeploymentOutcome outcome = Deploy(&target, &meta);
  ASSERT_FALSE(outcome.success);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_EQ(outcome.failure->stage, "etl");
  std::string message = outcome.failure->cause.ToString();
  EXPECT_NE(message.find("node '"), std::string::npos) << message;
  EXPECT_NE(message.find("(Join)"), std::string::npos) << message;
  EXPECT_NE(message.find("injected fault at 'etl.exec.Join'"),
            std::string::npos)
      << message;
}

TEST_F(FaultInjectionTest, RetriesAbsorbTransientFaultAndReportIt) {
  Injector::Instance().Enable(2);
  Injector::Instance().Configure("etl.exec.Aggregation",
                                 {.trigger_on_hit = 1, .max_failures = 1});

  storage::Database target;
  docstore::DocumentStore meta = SeededMetadata();
  DeployOptions options;
  options.retry.max_attempts = 3;
  DeploymentOutcome outcome = Deploy(&target, &meta, options);
  ASSERT_TRUE(outcome.success);
  EXPECT_TRUE(outcome.report.etl.recovered);
  EXPECT_EQ(outcome.report.etl.retried_nodes.size(), 1u);
  EXPECT_GT(outcome.report.etl.attempts,
            static_cast<int64_t>(outcome.report.etl.nodes.size()));
  bool found = false;
  for (const etl::NodeStats& stats : outcome.report.etl.nodes) {
    if (stats.attempts > 1) {
      EXPECT_EQ(stats.type, etl::OpType::kAggregation);
      EXPECT_EQ(stats.attempts, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FaultInjectionTest, ResumeContinuesFromCheckpoint) {
  // Pre-create the warehouse schema, then fail the flow mid-way.
  storage::Database target;
  auto sql = deployer::GenerateSql(design_.schema, mapping_, src_);
  ASSERT_TRUE(sql.ok());
  ASSERT_TRUE(storage::ExecuteSql(&target, *sql).ok());

  // Reference: node count and loaded rows of a clean run.
  storage::Database reference;
  ASSERT_TRUE(storage::ExecuteSql(&reference, *sql).ok());
  etl::Executor ref_exec(&src_, &reference);
  auto clean = ref_exec.Run(design_.flow);
  ASSERT_TRUE(clean.ok()) << clean.status();

  Injector::Instance().Enable(3);
  Injector::Instance().Configure("etl.exec.Loader", {.fail_from_hit = 1});

  etl::Executor executor(&src_, &target);
  etl::Checkpoint checkpoint;
  auto failed = executor.Run(design_.flow, etl::RetryPolicy{}, &checkpoint);
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(checkpoint.valid);
  EXPECT_FALSE(checkpoint.failed_node.empty());
  EXPECT_GT(checkpoint.completed.size(), 0u);
  EXPECT_GT(checkpoint.datasets.size(), 0u);

  // The fault clears; resuming runs only the remaining operators and the
  // final state matches the clean run.
  Injector::Instance().Disable();
  auto resumed = executor.Resume(design_.flow, &checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->recovered);
  EXPECT_EQ(resumed->nodes.size() + (clean->nodes.size() -
                                     resumed->nodes.size()),
            clean->nodes.size());
  EXPECT_LT(resumed->nodes.size(), clean->nodes.size());
  EXPECT_EQ(resumed->loaded, clean->loaded);
  EXPECT_EQ(target.Fingerprint(), reference.Fingerprint());
}

// ---------------------------------------------------------------------------
// The fault matrix.

TEST_F(FaultInjectionTest, EverySiteRecoversFromOneTransientFault) {
  std::vector<std::string> sites = DiscoverSites();
  ASSERT_GT(sites.size(), 0u);
  // The deployment path exercises storage, ETL and docstore sites.
  std::set<std::string> surface(sites.begin(), sites.end());
  EXPECT_TRUE(surface.count("storage.sql.statement")) << sites.size();
  EXPECT_TRUE(surface.count("storage.database.create_table"));
  EXPECT_TRUE(surface.count("etl.exec.Loader.write"));
  EXPECT_TRUE(surface.count("docstore.collection.upsert"));

  for (const std::string& site : sites) {
    // Seed the stores before arming the injector: the setup's own writes
    // must not draw the fault meant for the deployment.
    Injector::Instance().Disable();
    storage::Database target;
    docstore::DocumentStore meta = SeededMetadata();

    Injector::Instance().ClearConfigs();
    Injector::Instance().Configure(site,
                                   {.trigger_on_hit = 1, .max_failures = 1});
    Injector::Instance().Enable(7);

    DeployOptions options;
    options.retry.max_attempts = 4;
    DeploymentOutcome outcome = Deploy(&target, &meta, options);
    EXPECT_TRUE(outcome.success) << "site " << site << ": "
                                 << (outcome.failure
                                         ? outcome.failure->cause.ToString()
                                         : "no failure");
    EXPECT_EQ(Injector::Instance().FailureCount(site), 1)
        << "fault at " << site << " never fired";
    EXPECT_TRUE(target.CheckReferentialIntegrity().ok()) << "site " << site;
  }
}

TEST_F(FaultInjectionTest, UnrecoverableFaultRollsBackByteIdentically) {
  std::vector<std::string> sites = DiscoverSites();
  ASSERT_GT(sites.size(), 0u);

  for (const std::string& site : sites) {
    Injector::Instance().Disable();
    storage::Database target;
    docstore::DocumentStore meta = SeededMetadata();
    const uint64_t db_before = target.Fingerprint();
    const uint64_t meta_before = meta.Fingerprint();

    Injector::Instance().ClearConfigs();
    Injector::Instance().Configure(site, {.fail_from_hit = 1});
    Injector::Instance().Enable(7);

    DeployOptions options;
    options.retry.max_attempts = 2;
    DeploymentOutcome outcome = Deploy(&target, &meta, options);
    ASSERT_FALSE(outcome.success) << "site " << site;
    ASSERT_TRUE(outcome.failure.has_value()) << "site " << site;
    EXPECT_TRUE(outcome.failure->rolled_back) << "site " << site;
    EXPECT_FALSE(outcome.failure->stage.empty()) << "site " << site;
    EXPECT_FALSE(outcome.failure->cause.ok()) << "site " << site;
    EXPECT_EQ(target.Fingerprint(), db_before)
        << "site " << site << " left the target modified (stage "
        << outcome.failure->stage << ")";
    EXPECT_EQ(meta.Fingerprint(), meta_before)
        << "site " << site << " left the metadata store modified";
  }
}

// A failed deploy leaves a durable metadata store as it was, in memory and
// after recovery. A failed ETL stage writes nothing, so the store is not
// re-checkpointed. A failed record write drops the collection it created
// and re-checkpoints the store, which discards what the write left in the
// log (a record whose fsync failed, a creation whose put failed) and
// replaces a writer a torn append fail-stopped: a later write succeeds and
// recovery replays exactly it.
TEST_F(FaultInjectionTest, FailedDeployLeavesADurableMetadataStoreAlone) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "quarry_fault_durable_meta").string();
  obs::Counter& checkpoints = obs::MetricsRegistry::Instance().counter(
      "quarry_docstore_checkpoints_total");
  auto doc = [](const char* kind) {
    json::Object object;
    object.emplace_back("kind", json::Value(kind));
    return json::Value(std::move(object));
  };
  struct Case {
    const char* site;
    int64_t fail_from_hit;
    bool earlier_record;  // "deployments" already holds a record
  };
  // Into a store without "deployments", wal.append's first hit is the
  // collection's creation and its second the record.
  const Case cases[] = {
      {"etl.exec.Loader", 1, false},
      {"etl.exec.Loader", 1, true},
      {"docstore.collection.upsert", 1, false},
      {"docstore.collection.upsert", 1, true},
      {"wal.append", 1, false},
      {"wal.append", 2, false},
      {"wal.append", 1, true},
      {"wal.append.torn", 1, false},
      {"wal.append.torn", 1, true},
      {"wal.sync", 1, false},
      {"wal.sync", 1, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.site) + " from hit " +
                 std::to_string(c.fail_from_hit) +
                 (c.earlier_record ? ", earlier record" : ""));
    Injector::Instance().Disable();
    fs::remove_all(dir);
    fs::create_directories(dir);
    uint64_t meta_after = 0;
    {
      auto opened = docstore::DocumentStore::Open(dir);
      ASSERT_TRUE(opened.ok()) << opened.status();
      docstore::DocumentStore meta = std::move(*opened);
      ASSERT_TRUE(
          meta.GetOrCreate("ontologies")->Upsert("onto", doc("ontology")).ok());
      if (c.earlier_record) {
        ASSERT_TRUE(meta.GetOrCreate("deployments")
                        ->Upsert("earlier", doc("complete"))
                        .ok());
      }
      const uint64_t meta_before = meta.Fingerprint();
      const int64_t checkpoints_before = checkpoints.value();

      Injector::Instance().ClearConfigs();
      Injector::Instance().Configure(c.site,
                                     {.fail_from_hit = c.fail_from_hit});
      Injector::Instance().Enable(7);
      storage::Database target;
      DeploymentOutcome outcome = Deploy(&target, &meta);
      Injector::Instance().Disable();
      ASSERT_FALSE(outcome.success);
      ASSERT_TRUE(outcome.failure.has_value());
      EXPECT_TRUE(outcome.failure->rolled_back);
      EXPECT_EQ(target.num_tables(), 0u);
      EXPECT_EQ(meta.Fingerprint(), meta_before);
      const bool record_failed = outcome.failure->stage == "metadata";
      EXPECT_EQ(record_failed, std::string(c.site) != "etl.exec.Loader");
      if (record_failed) {
        EXPECT_GT(checkpoints.value(), checkpoints_before);
      } else {
        EXPECT_EQ(checkpoints.value(), checkpoints_before);
      }

      ASSERT_TRUE(
          meta.GetOrCreate("ontologies")->Upsert("later", doc("ontology")).ok());
      meta_after = meta.Fingerprint();
    }
    auto recovered = docstore::DocumentStore::LoadFromDirectory(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->Fingerprint(), meta_after);
  }
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, TenPercentFaultRateEverywhereStillDeploys) {
  std::vector<std::string> sites = DiscoverSites();
  ASSERT_GT(sites.size(), 0u);
  Injector::Instance().ClearConfigs();
  for (const std::string& site : sites) {
    Injector::Instance().Configure(site, {.probability = 0.1});
  }

  DeployOptions options;
  options.retry.max_attempts = 10;

  Injector::Instance().Disable();
  storage::Database target;
  docstore::DocumentStore meta = SeededMetadata();
  Injector::Instance().Enable(1234);
  DeploymentOutcome outcome = Deploy(&target, &meta, options);
  ASSERT_TRUE(outcome.success)
      << (outcome.failure ? outcome.failure->cause.ToString() : "");
  std::vector<std::string> log = Injector::Instance().FailureLog();
  EXPECT_GT(log.size(), 0u) << "faults never fired";
  EXPECT_TRUE(outcome.report.etl.recovered ||
              outcome.report.etl.retried_nodes.empty());
  EXPECT_GT(outcome.report.etl.loaded.at("fact_table_revenue"), 0);
  EXPECT_TRUE(target.CheckReferentialIntegrity().ok());

  // Same seed + same configs => the identical failure sequence, end to end.
  Injector::Instance().Disable();
  storage::Database target2;
  docstore::DocumentStore meta2 = SeededMetadata();
  Injector::Instance().Enable(1234);
  DeploymentOutcome outcome2 = Deploy(&target2, &meta2, options);
  ASSERT_TRUE(outcome2.success);
  EXPECT_EQ(Injector::Instance().FailureLog(), log);
  EXPECT_EQ(target2.Fingerprint(), target.Fingerprint());
  EXPECT_EQ(meta2.Fingerprint(), meta.Fingerprint());
}

// ---------------------------------------------------------------------------
// Best-effort degraded mode.

TEST_F(FaultInjectionTest, BestEffortKeepsFullyLoadedTables) {
  // Count loader completions of a clean run, then make the LAST loader's
  // write fail permanently: every table except its own loads fully.
  std::vector<std::string> sites = DiscoverSites();
  const int64_t loader_writes =
      Injector::Instance().HitCount("etl.exec.Loader.write");
  ASSERT_GE(loader_writes, 2) << "scenario needs >= 2 loaders";

  Injector::Instance().ClearConfigs();
  Injector::Instance().Configure("etl.exec.Loader.write",
                                 {.fail_from_hit = loader_writes});
  Injector::Instance().Enable(5);

  storage::Database target;
  docstore::DocumentStore meta = SeededMetadata();
  DeployOptions options;
  options.best_effort = true;
  DeploymentOutcome outcome = Deploy(&target, &meta, options);

  ASSERT_FALSE(outcome.success);
  EXPECT_TRUE(outcome.partial);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_EQ(outcome.failure->stage, "etl");
  EXPECT_FALSE(outcome.failure->failed_node.empty());
  EXPECT_FALSE(outcome.failure->rolled_back);
  EXPECT_EQ(outcome.failure->kept_tables.size(),
            static_cast<size_t>(loader_writes - 1));
  // Only the kept tables survive; the half-loaded one was erased.
  EXPECT_EQ(target.TableNames().size(), outcome.failure->kept_tables.size());
  for (const std::string& name : outcome.failure->kept_tables) {
    ASSERT_TRUE(target.HasTable(name)) << name;
    EXPECT_GT((*target.GetTable(name))->num_rows(), 0u) << name;
    EXPECT_GT(outcome.failure->rows_loaded.at(name), 0) << name;
  }
  // The deployment is recorded as partial in the metadata store.
  auto deployments = meta.Get("deployments");
  ASSERT_TRUE(deployments.ok());
  auto record = (*deployments)->Get("deployment");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->GetString("status"), "partial");
}

// ---------------------------------------------------------------------------
// The fault matrix under the wavefront scheduler (docs/ROBUSTNESS.md §8):
// identical contracts when the ETL stage runs with max_workers = 4.

/// Executor-owned fault sites: the ones a parallel ETL run can hit from
/// several workers at once. Deployer/storage/docstore sites run outside the
/// scheduler and are covered by the serial matrix above.
std::vector<std::string> ExecutorSites(const std::vector<std::string>& all) {
  std::vector<std::string> out;
  for (const std::string& site : all) {
    if (site.rfind("etl.exec.", 0) == 0) out.push_back(site);
  }
  return out;
}

TEST_F(FaultInjectionTest, ParallelEverySiteRecoversFromOneTransientFault) {
  std::vector<std::string> sites = ExecutorSites(DiscoverSites());
  ASSERT_GT(sites.size(), 0u);

  for (const std::string& site : sites) {
    Injector::Instance().Disable();
    storage::Database target;
    docstore::DocumentStore meta = SeededMetadata();

    // Count-based triggers only: which worker draws the Nth hit varies,
    // but exactly one fault fires and must be absorbed by that worker's
    // retry loop regardless of who it is.
    Injector::Instance().ClearConfigs();
    Injector::Instance().Configure(site,
                                   {.trigger_on_hit = 1, .max_failures = 1});
    Injector::Instance().Enable(7);

    DeployOptions options;
    options.retry.max_attempts = 4;
    options.exec.max_workers = 4;
    DeploymentOutcome outcome = Deploy(&target, &meta, options);
    EXPECT_TRUE(outcome.success) << "site " << site << ": "
                                 << (outcome.failure
                                         ? outcome.failure->cause.ToString()
                                         : "no failure");
    EXPECT_EQ(Injector::Instance().FailureCount(site), 1)
        << "fault at " << site << " never fired";
    EXPECT_TRUE(target.CheckReferentialIntegrity().ok()) << "site " << site;
  }
}

TEST_F(FaultInjectionTest, ParallelUnrecoverableFaultRollsBackByteIdentically) {
  std::vector<std::string> sites = ExecutorSites(DiscoverSites());
  ASSERT_GT(sites.size(), 0u);

  for (const std::string& site : sites) {
    Injector::Instance().Disable();
    storage::Database target;
    docstore::DocumentStore meta = SeededMetadata();
    const uint64_t db_before = target.Fingerprint();
    const uint64_t meta_before = meta.Fingerprint();

    Injector::Instance().ClearConfigs();
    Injector::Instance().Configure(site, {.fail_from_hit = 1});
    Injector::Instance().Enable(7);

    DeployOptions options;
    options.retry.max_attempts = 2;
    options.exec.max_workers = 4;
    DeploymentOutcome outcome = Deploy(&target, &meta, options);
    ASSERT_FALSE(outcome.success) << "site " << site;
    ASSERT_TRUE(outcome.failure.has_value()) << "site " << site;
    EXPECT_TRUE(outcome.failure->rolled_back) << "site " << site;
    // In-flight siblings drained before rollback; nothing they wrote may
    // survive, including half-written loader targets.
    EXPECT_EQ(target.Fingerprint(), db_before)
        << "site " << site << " left the target modified (stage "
        << outcome.failure->stage << ")";
    EXPECT_EQ(meta.Fingerprint(), meta_before)
        << "site " << site << " left the metadata store modified";
  }
}

TEST_F(FaultInjectionTest, ParallelKillAndResumeWithConcurrentSiblings) {
  // The parallel analogue of ResumeContinuesFromCheckpoint: a loader dies
  // while sibling branches are in flight. The drained siblings' work is
  // checkpointed, the resumed run (also parallel) executes strictly fewer
  // nodes, and the final warehouse is byte-identical to a clean serial run.
  storage::Database target;
  auto sql = deployer::GenerateSql(design_.schema, mapping_, src_);
  ASSERT_TRUE(sql.ok());
  ASSERT_TRUE(storage::ExecuteSql(&target, *sql).ok());

  storage::Database reference;
  ASSERT_TRUE(storage::ExecuteSql(&reference, *sql).ok());
  etl::Executor ref_exec(&src_, &reference);
  auto clean = ref_exec.Run(design_.flow);
  ASSERT_TRUE(clean.ok()) << clean.status();

  Injector::Instance().Enable(3);
  Injector::Instance().Configure("etl.exec.Loader.write",
                                 {.fail_from_hit = 1});

  etl::Executor executor(&src_, &target);
  etl::ExecOptions exec;
  exec.max_workers = 4;
  etl::Checkpoint checkpoint;
  auto failed =
      executor.Run(design_.flow, exec, etl::RetryPolicy{}, &checkpoint);
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(checkpoint.valid);
  EXPECT_FALSE(checkpoint.failed_node.empty());
  EXPECT_GT(checkpoint.completed.size(), 0u);

  Injector::Instance().Disable();
  auto resumed =
      executor.Resume(design_.flow, exec, &checkpoint, etl::RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->recovered);
  EXPECT_LT(resumed->nodes.size(), clean->nodes.size());
  EXPECT_EQ(resumed->loaded, clean->loaded);
  EXPECT_EQ(target.Fingerprint(), reference.Fingerprint());
}

// ---------------------------------------------------------------------------
// The fault matrix at a small chunk size (DESIGN.md §8): besides the
// per-operator fault sites, every chunk kernel consults a mid-stream one
// (`etl.exec.vec.chunk`) once per node attempt, at its second chunk, so the
// same transient/unrecoverable contracts must hold when a fault fires after
// some chunks of a node were already processed.

class VectorizedFaultTest : public FaultInjectionTest {
 protected:
  static deployer::DeployOptions VectorizedOptions() {
    deployer::DeployOptions options;
    options.exec.chunk_size = 32;  // many chunks per node at sf 0.005
    return options;
  }

  /// Fault surface of a deployment at chunk size 32: the per-operator
  /// sites plus the mid-stream chunk gate, which only a node whose input
  /// spans several chunks reaches. `report`, if given, receives the
  /// discovery run's ETL report.
  std::vector<std::string> DiscoverVectorizedSites(
      etl::ExecutionReport* report = nullptr) {
    Injector::Instance().Disable();
    storage::Database target;
    docstore::DocumentStore meta = SeededMetadata();
    Injector::Instance().ClearConfigs();
    Injector::Instance().Enable(/*seed=*/7);
    DeploymentOutcome outcome = Deploy(&target, &meta, VectorizedOptions());
    EXPECT_TRUE(outcome.success);
    if (report != nullptr) *report = outcome.report.etl;
    return Injector::Instance().HitSites();
  }
};

TEST_F(VectorizedFaultTest, ChunkGateIsPartOfTheFaultSurface) {
  etl::ExecutionReport report;
  std::vector<std::string> sites = DiscoverVectorizedSites(&report);
  std::set<std::string> surface(sites.begin(), sites.end());
  EXPECT_TRUE(surface.count("etl.exec.vec.chunk"));
  EXPECT_TRUE(surface.count("etl.exec.Loader.write"));
  // Every multi-chunk node attempt consults the gate once, at its second
  // chunk. At chunk size 32 that is every node of this deploy but the ones
  // an Aggregation feeds, which emits its groups as one chunk; no node is
  // retried.
  int64_t single_chunk = 0;
  for (const etl::NodeStats& node : report.nodes) {
    for (const std::string& pred : design_.flow.Predecessors(node.node_id)) {
      if ((*design_.flow.GetNode(pred))->type == etl::OpType::kAggregation) {
        ++single_chunk;
      }
    }
  }
  ASSERT_GT(single_chunk, 0);
  EXPECT_EQ(report.attempts, static_cast<int64_t>(design_.flow.num_nodes()));
  EXPECT_EQ(Injector::Instance().HitCount("etl.exec.vec.chunk"),
            report.attempts - single_chunk);
}

TEST_F(VectorizedFaultTest, EverySiteRecoversFromOneTransientFault) {
  std::vector<std::string> sites = ExecutorSites(DiscoverVectorizedSites());
  ASSERT_GT(sites.size(), 0u);

  for (const std::string& site : sites) {
    Injector::Instance().Disable();
    storage::Database target;
    docstore::DocumentStore meta = SeededMetadata();

    Injector::Instance().ClearConfigs();
    Injector::Instance().Configure(site,
                                   {.trigger_on_hit = 1, .max_failures = 1});
    Injector::Instance().Enable(7);

    deployer::DeployOptions options = VectorizedOptions();
    options.retry.max_attempts = 4;
    DeploymentOutcome outcome = Deploy(&target, &meta, options);
    EXPECT_TRUE(outcome.success) << "site " << site << ": "
                                 << (outcome.failure
                                         ? outcome.failure->cause.ToString()
                                         : "no failure");
    EXPECT_EQ(Injector::Instance().FailureCount(site), 1)
        << "fault at " << site << " never fired";
    EXPECT_TRUE(target.CheckReferentialIntegrity().ok()) << "site " << site;
  }
}

TEST_F(VectorizedFaultTest, UnrecoverableFaultRollsBackByteIdentically) {
  std::vector<std::string> sites = ExecutorSites(DiscoverVectorizedSites());
  ASSERT_GT(sites.size(), 0u);

  for (const std::string& site : sites) {
    Injector::Instance().Disable();
    storage::Database target;
    docstore::DocumentStore meta = SeededMetadata();
    const uint64_t db_before = target.Fingerprint();
    const uint64_t meta_before = meta.Fingerprint();

    Injector::Instance().ClearConfigs();
    Injector::Instance().Configure(site, {.fail_from_hit = 1});
    Injector::Instance().Enable(7);

    deployer::DeployOptions options = VectorizedOptions();
    options.retry.max_attempts = 2;
    DeploymentOutcome outcome = Deploy(&target, &meta, options);
    ASSERT_FALSE(outcome.success) << "site " << site;
    ASSERT_TRUE(outcome.failure.has_value()) << "site " << site;
    EXPECT_TRUE(outcome.failure->rolled_back) << "site " << site;
    EXPECT_EQ(target.Fingerprint(), db_before)
        << "site " << site << " left the target modified (stage "
        << outcome.failure->stage << ")";
    EXPECT_EQ(meta.Fingerprint(), meta_before)
        << "site " << site << " left the metadata store modified";
  }
}

TEST_F(VectorizedFaultTest, MidChunkTransientFaultRetriesTheWholeNode) {
  // The 3rd chunk-gate hit fails once: the node dies mid-stream with some
  // chunks already processed, rolls back to its input boundary, and the
  // retry replays it from the first chunk — absorbed, not surfaced.
  Injector::Instance().ClearConfigs();
  Injector::Instance().Configure("etl.exec.vec.chunk",
                                 {.trigger_on_hit = 3, .max_failures = 1});
  Injector::Instance().Enable(11);

  storage::Database target;
  docstore::DocumentStore meta = SeededMetadata();
  deployer::DeployOptions options = VectorizedOptions();
  options.retry.max_attempts = 3;
  DeploymentOutcome outcome = Deploy(&target, &meta, options);
  ASSERT_TRUE(outcome.success)
      << (outcome.failure ? outcome.failure->cause.ToString() : "");
  EXPECT_TRUE(outcome.report.etl.recovered);
  EXPECT_EQ(outcome.report.etl.retried_nodes.size(), 1u);
  EXPECT_EQ(Injector::Instance().FailureCount("etl.exec.vec.chunk"), 1);
}

TEST_F(VectorizedFaultTest, MidChunkFaultResumesFromChunkBoundaryCheckpoint) {
  // A permanent mid-stream chunk fault kills the run after upstream nodes
  // completed. Checkpoints are cut at chunk boundaries (the gate runs
  // between chunks), so the checkpoint holds every node that finished all
  // its chunks; the half-done node rolled back to its input boundary and
  // re-runs in full on resume — converging on the clean run's bytes.
  storage::Database target;
  auto sql = deployer::GenerateSql(design_.schema, mapping_, src_);
  ASSERT_TRUE(sql.ok());
  ASSERT_TRUE(storage::ExecuteSql(&target, *sql).ok());

  etl::ExecOptions exec;
  exec.chunk_size = 32;

  // Clean vectorized reference run with the injector armed but unconfigured:
  // its chunk-gate hit count tells us where the stream ends, so the fault
  // below can be pinned to the LAST gate hit — guaranteed mid-run (upstream
  // nodes complete) and guaranteed mid-stream of whatever node draws it.
  storage::Database reference;
  ASSERT_TRUE(storage::ExecuteSql(&reference, *sql).ok());
  etl::Executor ref_exec(&src_, &reference);
  Injector::Instance().ClearConfigs();
  Injector::Instance().Enable(13);
  auto clean = ref_exec.Run(design_.flow, exec, etl::RetryPolicy{}, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();
  const int64_t gate_hits =
      Injector::Instance().HitCount("etl.exec.vec.chunk");
  // One hit per multi-chunk node attempt: more than one means the last hit
  // lands after an earlier multi-chunk node completed.
  ASSERT_GT(gate_hits, 1);

  Injector::Instance().Configure("etl.exec.vec.chunk",
                                 {.fail_from_hit = gate_hits});
  Injector::Instance().Enable(13);  // reset counters, keep the config

  etl::Executor executor(&src_, &target);
  etl::Checkpoint checkpoint;
  auto failed =
      executor.Run(design_.flow, exec, etl::RetryPolicy{}, &checkpoint);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("etl.exec.vec.chunk"),
            std::string::npos)
      << failed.status();
  ASSERT_TRUE(checkpoint.valid);
  EXPECT_FALSE(checkpoint.failed_node.empty());
  EXPECT_GT(checkpoint.completed.size(), 0u);

  Injector::Instance().Disable();
  auto resumed =
      executor.Resume(design_.flow, exec, &checkpoint, etl::RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->recovered);
  EXPECT_LT(resumed->nodes.size(), clean->nodes.size());
  EXPECT_EQ(resumed->loaded, clean->loaded);
  EXPECT_EQ(target.Fingerprint(), reference.Fingerprint());
}

}  // namespace
}  // namespace quarry
