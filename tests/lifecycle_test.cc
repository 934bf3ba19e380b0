// Tests of the request-lifecycle layer (docs/ROBUSTNESS.md §7): the
// CancellationToken / Deadline / ExecContext primitives, their cooperative
// enforcement in the ETL executor and the transactional deployer, the
// deadline- and budget-bounded retry backoff, and the AdmissionController
// gate in front of Quarry::Submit*. The whole file carries the ctest
// labels `lifecycle;tsan` and must run cleanly under
// tools/run_tsan.sh (-DQUARRY_SANITIZE=thread).

#include "common/exec_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/admission.h"
#include "core/quarry.h"
#include "datagen/tpch.h"
#include "deployer/deployer.h"
#include "docstore/document_store.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"
#include "interpreter/interpreter.h"
#include "obs/metrics.h"
#include "ontology/tpch_ontology.h"
#include "storage/database.h"

namespace quarry {
namespace {

using core::AdmissionController;
using core::AdmissionOptions;
using deployer::Deployer;
using deployer::DeploymentOutcome;
using deployer::DeployOptions;
using etl::Checkpoint;
using etl::Executor;
using etl::Flow;
using etl::Node;
using etl::OpType;
using etl::RetryPolicy;
using interpreter::Interpreter;
using req::InformationRequirement;
using storage::Database;
using storage::Table;
using storage::Value;

// ---- token / deadline / context primitives --------------------------------

TEST(CancellationTokenTest, CancelSetsFlagAndReason) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
  token.Cancel("user closed the session");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "user closed the session");
  token.Cancel("second reason is ignored");
  EXPECT_EQ(token.reason(), "user closed the session");
}

TEST(CancellationTokenTest, ChildObservesParentButNotSiblings) {
  CancellationToken parent;
  CancellationToken a = CancellationToken::Child(parent);
  CancellationToken b = CancellationToken::Child(parent);
  a.Cancel("just a");
  EXPECT_TRUE(a.cancelled());
  EXPECT_FALSE(parent.cancelled());
  EXPECT_FALSE(b.cancelled());
  parent.Cancel("shutdown");
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(b.reason(), "shutdown");
  EXPECT_EQ(a.reason(), "just a");  // Nearest cancelled ancestor wins.
}

TEST(CancellationTokenTest, CopiesShareState) {
  CancellationToken token;
  CancellationToken copy = token;
  copy.Cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(DeadlineTest, UnboundedNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.unbounded());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_millis()));
}

TEST(DeadlineTest, PastDeadlineIsExpiredAndClamped) {
  Deadline d = Deadline::After(0.0);
  EXPECT_FALSE(d.unbounded());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_millis(), 0.0);
}

TEST(ExecContextTest, CheckNamesTheCancellationPoint) {
  CancellationToken token;
  ExecContext ctx(token, Deadline::Infinite());
  EXPECT_TRUE(ctx.Check("somewhere").ok());
  token.Cancel("test over");
  Status s = ctx.Check("node 'JOIN_1'");
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_NE(s.message().find("JOIN_1"), std::string::npos);
  EXPECT_NE(s.message().find("test over"), std::string::npos);
}

TEST(ExecContextTest, ExpiredDeadlineFailsCheck) {
  ExecContext ctx(Deadline::After(0.0));
  Status s = ctx.Check("etl.run");
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_NE(s.message().find("etl.run"), std::string::npos);
}

TEST(ExecContextTest, RowAndByteBudgetsTripAndReset) {
  ExecContext ctx(CancellationToken(), Deadline::Infinite(),
                  {/*max_rows_materialized=*/10,
                   /*max_intermediate_bytes=*/100, /*max_flow_nodes=*/0});
  EXPECT_TRUE(ctx.ChargeRows(8, "a").ok());
  Status rows = ctx.ChargeRows(5, "b");
  EXPECT_TRUE(rows.IsResourceExhausted()) << rows;
  EXPECT_EQ(ctx.rows_materialized(), 13);
  EXPECT_TRUE(ctx.ChargeBytes(90, "c").ok());
  EXPECT_TRUE(ctx.ChargeBytes(20, "d").IsResourceExhausted());
  ctx.ResetCharges();
  EXPECT_EQ(ctx.rows_materialized(), 0);
  EXPECT_EQ(ctx.intermediate_bytes(), 0);
  EXPECT_TRUE(ctx.ChargeRows(10, "e").ok());
}

TEST(ExecContextTest, LifecycleErrorClassification) {
  EXPECT_TRUE(IsLifecycleError(Status::Cancelled("x")));
  EXPECT_TRUE(IsLifecycleError(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(IsLifecycleError(Status::ResourceExhausted("x")));
  EXPECT_TRUE(IsLifecycleError(Status::Overloaded("x")));
  EXPECT_FALSE(IsLifecycleError(Status::OK()));
  EXPECT_FALSE(IsLifecycleError(Status::ExecutionError("x")));
  EXPECT_TRUE(CheckContext(nullptr, "anywhere").ok());
}

// ---- deadline/budget-bounded retry backoff --------------------------------

RetryPolicy NoJitterPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff_millis = 100.0;
  policy.max_backoff_millis = 1000.0;
  policy.jitter_fraction = 0.0;  // Deterministic raw backoff.
  return policy;
}

TEST(BoundedBackoffTest, UnboundedMatchesRawBackoff) {
  RetryPolicy policy = NoJitterPolicy();
  Prng raw_prng(policy.jitter_seed), bounded_prng(policy.jitter_seed);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    EXPECT_DOUBLE_EQ(
        etl::BoundedBackoffMillis(policy, attempt, &bounded_prng, 0.0,
                                  nullptr),
        etl::RetryBackoffMillis(policy, attempt, &raw_prng));
  }
}

TEST(BoundedBackoffTest, OverallBudgetClipsTheLastSleep) {
  RetryPolicy policy = NoJitterPolicy();
  policy.total_backoff_budget_millis = 150.0;
  Prng prng(policy.jitter_seed);
  // Raw schedule is 100, 200, 400...; with 150ms of budget the second
  // sleep is clipped to 50 and everything after is zero.
  EXPECT_DOUBLE_EQ(
      etl::BoundedBackoffMillis(policy, 1, &prng, /*spent=*/0.0, nullptr),
      100.0);
  EXPECT_DOUBLE_EQ(
      etl::BoundedBackoffMillis(policy, 2, &prng, /*spent=*/100.0, nullptr),
      50.0);
  EXPECT_DOUBLE_EQ(
      etl::BoundedBackoffMillis(policy, 3, &prng, /*spent=*/150.0, nullptr),
      0.0);
}

TEST(BoundedBackoffTest, DeadlineClipsTheSleep) {
  RetryPolicy policy = NoJitterPolicy();
  Prng prng(policy.jitter_seed);
  ExecContext ctx(Deadline::After(20.0));
  double sleep = etl::BoundedBackoffMillis(policy, 1, &prng, 0.0, &ctx);
  EXPECT_LE(sleep, 20.0);
  EXPECT_GE(sleep, 0.0);
  ExecContext expired(Deadline::After(0.0));
  EXPECT_DOUBLE_EQ(etl::BoundedBackoffMillis(policy, 1, &prng, 0.0, &expired),
                   0.0);
}

// ---- cooperative enforcement in the ETL executor --------------------------

Node MakeNode(const std::string& id, OpType type,
              std::map<std::string, std::string> params) {
  Node node;
  node.id = id;
  node.type = type;
  node.params = std::move(params);
  return node;
}

// ds -> ex -> sel(qty >= 0) -> load("out"): loads 3 of the 4 sales rows
// (the NULL-qty row filters out).
std::unique_ptr<Database> MakeTinySource() {
  auto db = std::make_unique<Database>("src");
  storage::TableSchema sales("sales");
  EXPECT_TRUE(sales.AddColumn({"id", storage::DataType::kInt64, false}).ok());
  EXPECT_TRUE(sales.AddColumn({"qty", storage::DataType::kInt64, true}).ok());
  Table* t = *db->CreateTable(sales);
  EXPECT_TRUE(t->InsertAll({{Value::Int(1), Value::Int(2)},
                            {Value::Int(2), Value::Int(5)},
                            {Value::Int(3), Value::Int(1)},
                            {Value::Int(4), Value::Null()}})
                  .ok());
  return db;
}

Flow MakeTinyFlow() {
  Flow flow("tiny");
  EXPECT_TRUE(
      flow.AddNode(MakeNode("ds", OpType::kDatastore, {{"table", "sales"}}))
          .ok());
  EXPECT_TRUE(
      flow.AddNode(MakeNode("ex", OpType::kExtraction, {{"table", "sales"}}))
          .ok());
  EXPECT_TRUE(flow.AddNode(MakeNode("sel", OpType::kSelection,
                                    {{"predicate", "qty >= 0"}}))
                  .ok());
  EXPECT_TRUE(flow.AddNode(MakeNode("load", OpType::kLoader,
                                    {{"table", "out"}, {"keys", "id"}}))
                  .ok());
  EXPECT_TRUE(flow.AddEdge("ds", "ex").ok());
  EXPECT_TRUE(flow.AddEdge("ex", "sel").ok());
  EXPECT_TRUE(flow.AddEdge("sel", "load").ok());
  return flow;
}

TEST(ExecutorLifecycleTest, CancelledContextFailsBeforeAnyWork) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();
  CancellationToken token;
  token.Cancel("caller gave up");
  ExecContext ctx(token, Deadline::Infinite());
  Checkpoint checkpoint;
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, {}, &checkpoint, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  EXPECT_FALSE(target.HasTable("out"));
  // Resume after cancellation works exactly like resume after a fault.
  // (Nothing completed before the cancel, so the resume is a clean re-run
  // from the empty prefix.)
  ASSERT_TRUE(checkpoint.valid);
  auto resumed = executor.Resume(flow, &checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*target.GetTable("out"))->num_rows(), 3u);
}

TEST(ExecutorLifecycleTest, ExpiredDeadlineFailsRunAndResumeCompletes) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();
  ExecContext ctx(Deadline::After(0.0));
  Checkpoint checkpoint;
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, {}, &checkpoint, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  ASSERT_TRUE(checkpoint.valid);
  // A fresh (unbounded) context stands in for the caller extending the
  // deadline before resuming.
  ExecContext fresh;
  auto resumed = executor.Resume(flow, &checkpoint, {}, &fresh);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*target.GetTable("out"))->num_rows(), 3u);
}

TEST(ExecutorLifecycleTest, RowBudgetTripsMidFlowAndResumeCompletes) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();
  // Datastore + extraction charge 4 rows each (8 total); the selection's
  // 3 output rows trip the budget of 9 mid-flow.
  ExecContext ctx(CancellationToken(), Deadline::Infinite(),
                  {/*max_rows_materialized=*/9, 0, 0});
  Checkpoint checkpoint;
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, {}, &checkpoint, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_EQ(checkpoint.failed_node, "sel");
  EXPECT_FALSE(target.HasTable("out"));
  auto resumed = executor.Resume(flow, &checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*target.GetTable("out"))->num_rows(), 3u);
}

TEST(ExecutorLifecycleTest, BudgetTripAtLoaderRollsTheTableBack) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();
  // 4 (ds) + 4 (ex) + 3 (sel) + 3 (load) = 14 > 12: the loader itself
  // goes over budget AFTER writing — its table must roll back (vanish).
  ExecContext ctx(CancellationToken(), Deadline::Infinite(),
                  {/*max_rows_materialized=*/12, 0, 0});
  Checkpoint checkpoint;
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, {}, &checkpoint, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_EQ(checkpoint.failed_node, "load");
  EXPECT_FALSE(target.HasTable("out"));
}

TEST(ExecutorLifecycleTest, ResumeRefusesAnotherFlowWithTheSameName) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();
  // As above: the loader trips the 12-row budget with ds, ex and sel done.
  ExecContext ctx(CancellationToken(), Deadline::Infinite(),
                  {/*max_rows_materialized=*/12, 0, 0});
  Checkpoint checkpoint;
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, {}, &checkpoint, &ctx);
  ASSERT_TRUE(result.status().IsResourceExhausted()) << result.status();
  ASSERT_EQ(checkpoint.failed_node, "load");
  ASSERT_EQ(checkpoint.completed,
            (std::vector<std::string>{"ds", "ex", "sel"}));

  // Same name, another predicate: the checkpointed output of `sel` (3
  // rows) is not what this flow's `sel` computes (1 row).
  Flow changed = MakeTinyFlow();
  (*changed.GetMutableNode("sel"))->params["predicate"] = "qty >= 3";
  auto refused = executor.Resume(changed, &checkpoint);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument()) << refused.status();
  EXPECT_FALSE(target.HasTable("out"));
  // Same nodes, other edges: the loader now reads `ex`.
  Flow rewired = MakeTinyFlow();
  ASSERT_TRUE(rewired.RemoveEdge("sel", "load").ok());
  ASSERT_TRUE(rewired.AddEdge("ex", "load").ok());
  auto refused_edges = executor.Resume(rewired, &checkpoint);
  EXPECT_TRUE(refused_edges.status().IsInvalidArgument())
      << refused_edges.status();
  EXPECT_FALSE(target.HasTable("out"));

  // A refused Resume leaves the checkpoint whole for its own flow.
  auto resumed = executor.Resume(flow, &checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*target.GetTable("out"))->num_rows(), 3u);
}

TEST(ExecutorLifecycleTest, ByteBudgetTrips) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();
  ExecContext ctx(CancellationToken(), Deadline::Infinite(),
                  {0, /*max_intermediate_bytes=*/1, 0});
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, {}, nullptr, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
}

TEST(ExecutorLifecycleTest, FlowNodeBudgetRejectsUpfront) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();  // 4 nodes.
  ExecContext ctx(CancellationToken(), Deadline::Infinite(),
                  {0, 0, /*max_flow_nodes=*/3});
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, {}, nullptr, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_FALSE(target.HasTable("out"));
}

class ExecutorRetryLifecycleTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Injector::Instance().Disable();
    fault::Injector::Instance().ClearConfigs();
  }
};

TEST_F(ExecutorRetryLifecycleTest, DeadlineCapsRetryBackoff) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();
  // Every Selection attempt faults; the raw backoff schedule (100, 200,
  // 400... ms) would sleep for seconds, but the 50ms deadline clips the
  // first sleep and the next attempt's pre-check fails.
  fault::Injector::Instance().Enable(/*seed=*/3);
  fault::Injector::Instance().Configure("etl.exec.Selection",
                                        {0.0, 0, /*fail_from_hit=*/1, -1});
  RetryPolicy policy = NoJitterPolicy();
  ExecContext ctx(Deadline::After(50.0));
  Timer timer;
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, policy, nullptr, &ctx);
  double elapsed_ms = timer.ElapsedMicros() / 1000.0;
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  // Generous bound: without clipping this would take >= 700ms of sleep.
  EXPECT_LT(elapsed_ms, 600.0);
}

TEST_F(ExecutorRetryLifecycleTest, OverallBackoffBudgetCapsSleeps) {
  auto src = MakeTinySource();
  Database target("dw");
  Flow flow = MakeTinyFlow();
  fault::Injector::Instance().Enable(/*seed=*/3);
  fault::Injector::Instance().Configure("etl.exec.Selection",
                                        {0.0, 0, /*fail_from_hit=*/1, -1});
  RetryPolicy policy = NoJitterPolicy();
  policy.max_attempts = 4;  // Raw sleeps 100+200+400 = 700ms...
  policy.total_backoff_budget_millis = 50.0;  // ...bounded to 50ms total.
  Timer timer;
  Executor executor(src.get(), &target);
  auto result = executor.Run(flow, policy, nullptr, nullptr);
  double elapsed_ms = timer.ElapsedMicros() / 1000.0;
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(IsLifecycleError(result.status()));  // A real operator fault.
  EXPECT_LT(elapsed_ms, 600.0);
}

// ---- transactional deployment under a lifecycle ---------------------------

InformationRequirement RevenueIr() {
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

class DeployLifecycleTest : public ::testing::Test {
 protected:
  DeployLifecycleTest()
      : onto_(ontology::BuildTpchOntology()),
        mapping_(ontology::BuildTpchMappings()),
        interpreter_(&onto_, &mapping_) {
    EXPECT_TRUE(datagen::PopulateTpch(&src_, {0.005, 23}).ok());
    auto design = interpreter_.Interpret(RevenueIr());
    EXPECT_TRUE(design.ok()) << design.status();
    design_ = std::move(*design);
  }

  /// Seeds the metadata with pre-existing content and returns the outcome
  /// of a transactional deploy into the (empty) target under `ctx`.
  DeploymentOutcome DeployUnder(const ExecContext* ctx, bool best_effort,
                                uint64_t* target_fp_before,
                                uint64_t* meta_fp_before,
                                storage::Database* target,
                                docstore::DocumentStore* meta) {
    json::Object doc;
    doc.emplace_back("_id", json::Value("onto"));
    EXPECT_TRUE(meta->GetOrCreate("ontologies")
                    ->Upsert("onto", json::Value(std::move(doc)))
                    .ok());
    *target_fp_before = target->Fingerprint();
    *meta_fp_before = meta->Fingerprint();
    DeployOptions options;
    options.context = ctx;
    options.best_effort = best_effort;
    options.metadata = meta;
    Deployer dep(&src_, target);
    auto outcome =
        dep.DeployTransactional(design_.schema, design_.flow, mapping_,
                                options);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return std::move(*outcome);
  }

  ontology::Ontology onto_;
  ontology::SourceMapping mapping_;
  Interpreter interpreter_;
  storage::Database src_;
  interpreter::PartialDesign design_;
};

TEST_F(DeployLifecycleTest, ExpiredDeadlineFailsBeforeAnythingMutates) {
  storage::Database target;
  docstore::DocumentStore meta;
  uint64_t target_fp = 0, meta_fp = 0;
  ExecContext ctx(Deadline::After(0.0));
  DeploymentOutcome outcome =
      DeployUnder(&ctx, /*best_effort=*/false, &target_fp, &meta_fp, &target,
                  &meta);
  EXPECT_FALSE(outcome.success);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_EQ(outcome.failure->stage, "generate");
  EXPECT_TRUE(outcome.failure->cause.IsDeadlineExceeded())
      << outcome.failure->cause;
  EXPECT_EQ(target.Fingerprint(), target_fp);
  EXPECT_EQ(meta.Fingerprint(), meta_fp);
}

TEST_F(DeployLifecycleTest, BudgetTripMidEtlRollsEverythingBack) {
  storage::Database target;
  docstore::DocumentStore meta;
  uint64_t target_fp = 0, meta_fp = 0;
  // Far too small for the revenue flow: trips inside the ETL stage after
  // the DDL already created tables.
  ExecContext ctx(CancellationToken(), Deadline::Infinite(),
                  {/*max_rows_materialized=*/10, 0, 0});
  DeploymentOutcome outcome =
      DeployUnder(&ctx, /*best_effort=*/false, &target_fp, &meta_fp, &target,
                  &meta);
  EXPECT_FALSE(outcome.success);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_EQ(outcome.failure->stage, "etl");
  EXPECT_TRUE(outcome.failure->cause.IsResourceExhausted())
      << outcome.failure->cause;
  EXPECT_TRUE(outcome.failure->rolled_back);
  EXPECT_EQ(target.Fingerprint(), target_fp);
  EXPECT_EQ(meta.Fingerprint(), meta_fp);
}

TEST_F(DeployLifecycleTest, LifecycleErrorBypassesBestEffortMode) {
  storage::Database target;
  docstore::DocumentStore meta;
  uint64_t target_fp = 0, meta_fp = 0;
  ExecContext ctx(CancellationToken(), Deadline::Infinite(),
                  {/*max_rows_materialized=*/10, 0, 0});
  // best_effort would normally keep completed dimension tables; an
  // abandoned request must roll back fully regardless.
  DeploymentOutcome outcome =
      DeployUnder(&ctx, /*best_effort=*/true, &target_fp, &meta_fp, &target,
                  &meta);
  EXPECT_FALSE(outcome.success);
  EXPECT_FALSE(outcome.partial);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_TRUE(outcome.failure->rolled_back);
  EXPECT_TRUE(outcome.failure->kept_tables.empty());
  EXPECT_EQ(target.Fingerprint(), target_fp);
  EXPECT_EQ(meta.Fingerprint(), meta_fp);
}

TEST_F(DeployLifecycleTest, CancelledMidDeployRollsBack) {
  storage::Database target;
  docstore::DocumentStore meta;
  uint64_t target_fp = 0, meta_fp = 0;
  // Cancel from a watcher thread while the deployment runs. Whether the
  // deploy finishes first (tiny data) or is interrupted, the invariant
  // holds: success XOR full rollback — never a half-deployed warehouse.
  CancellationToken token;
  ExecContext ctx(token, Deadline::Infinite());
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.Cancel("watcher pulled the plug");
  });
  DeploymentOutcome outcome =
      DeployUnder(&ctx, /*best_effort=*/false, &target_fp, &meta_fp, &target,
                  &meta);
  canceller.join();
  if (!outcome.success) {
    ASSERT_TRUE(outcome.failure.has_value());
    EXPECT_TRUE(outcome.failure->cause.IsCancelled())
        << outcome.failure->cause;
    EXPECT_EQ(target.Fingerprint(), target_fp);
    EXPECT_EQ(meta.Fingerprint(), meta_fp);
  }
}

// The acceptance scenario: a deliberately slow flow (TPC-H at 40x the usual
// test scale, so the whole run takes several times the 50ms deadline) with
// a 50ms deadline fails promptly with kDeadlineExceeded, leaves no
// half-deployed warehouse, and the same run is resumable at the executor
// level via the existing Checkpoint/Resume.
class SlowFlowDeadlineTest : public ::testing::Test {
 protected:
  SlowFlowDeadlineTest()
      : onto_(ontology::BuildTpchOntology()),
        mapping_(ontology::BuildTpchMappings()),
        interpreter_(&onto_, &mapping_) {
    EXPECT_TRUE(datagen::PopulateTpch(&src_, {0.2, 23}).ok());
    auto design = interpreter_.Interpret(RevenueIr());
    EXPECT_TRUE(design.ok()) << design.status();
    design_ = std::move(*design);
  }

  ontology::Ontology onto_;
  ontology::SourceMapping mapping_;
  Interpreter interpreter_;
  storage::Database src_;
  interpreter::PartialDesign design_;
};

TEST_F(SlowFlowDeadlineTest, FiftyMsDeadlineFailsPromptlyAndResumes) {
  storage::Database target;
  Executor executor(&src_, &target);
  ExecContext ctx(Deadline::After(50.0));
  Checkpoint checkpoint;
  Timer timer;
  auto result = executor.Run(design_.flow, {}, &checkpoint, &ctx);
  double elapsed_ms = timer.ElapsedMicros() / 1000.0;
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  // "Promptly": the full run takes multiple seconds at this scale; the
  // per-batch checks must stop it well before that (generous CI bound).
  EXPECT_LT(elapsed_ms, 3000.0);
  ASSERT_TRUE(checkpoint.valid);
  auto resumed = executor.Resume(design_.flow, &checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->recovered);
  EXPECT_TRUE(target.HasTable("fact_table_revenue"));
}

TEST_F(SlowFlowDeadlineTest, FiftyMsDeadlineDeployLeavesNoTrace) {
  storage::Database target;
  uint64_t fp_before = target.Fingerprint();
  DeployOptions options;
  ExecContext ctx(Deadline::After(50.0));
  options.context = &ctx;
  Deployer dep(&src_, &target);
  auto outcome =
      dep.DeployTransactional(design_.schema, design_.flow, mapping_,
                              options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->success);
  ASSERT_TRUE(outcome->failure.has_value());
  EXPECT_TRUE(outcome->failure->cause.IsDeadlineExceeded())
      << outcome->failure->cause;
  EXPECT_EQ(target.Fingerprint(), fp_before);
  EXPECT_EQ(target.TableNames().size(), 0u);
}

// ---- admission control ----------------------------------------------------

int64_t CounterValue(const std::string& family, const obs::Labels& labels) {
  return obs::MetricsRegistry::Instance().counter(family, "", labels).value();
}

TEST(AdmissionTest, FastPathAdmitsUpToLimit) {
  AdmissionController gate({.max_in_flight = 2, .max_queue_depth = 0, .lane = ""});
  int64_t admitted_before = CounterValue("quarry_admission_admitted_total", {});
  auto first = gate.Admit();
  auto second = gate.Admit();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(gate.in_flight(), 2);
  EXPECT_EQ(CounterValue("quarry_admission_admitted_total", {}),
            admitted_before + 2);
  first->Release();
  EXPECT_EQ(gate.in_flight(), 1);
  second->Release();
  EXPECT_EQ(gate.in_flight(), 0);
  second->Release();  // Idempotent.
  EXPECT_EQ(gate.in_flight(), 0);
}

TEST(AdmissionTest, FullQueueShedsWithOverloaded) {
  AdmissionController gate({.max_in_flight = 1, .max_queue_depth = 0, .lane = ""});
  int64_t shed_before = CounterValue("quarry_admission_shed_total",
                                     {{"reason", "queue_full"}});
  auto held = gate.Admit();
  ASSERT_TRUE(held.ok());
  auto rejected = gate.Admit();
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded()) << rejected.status();
  EXPECT_EQ(CounterValue("quarry_admission_shed_total",
                         {{"reason", "queue_full"}}),
            shed_before + 1);
}

TEST(AdmissionTest, QueueTimeoutShedsWithOverloaded) {
  AdmissionController gate({.max_in_flight = 1,
                            .max_queue_depth = 4,
                            .queue_timeout_millis = 20.0,
                            .lane = ""});
  int64_t shed_before = CounterValue("quarry_admission_shed_total",
                                     {{"reason", "queue_timeout"}});
  auto held = gate.Admit();
  ASSERT_TRUE(held.ok());
  Timer timer;
  auto timed_out = gate.Admit();
  double waited_ms = timer.ElapsedMicros() / 1000.0;
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsOverloaded()) << timed_out.status();
  EXPECT_GE(waited_ms, 15.0);
  EXPECT_EQ(CounterValue("quarry_admission_shed_total",
                         {{"reason", "queue_timeout"}}),
            shed_before + 1);
  EXPECT_EQ(gate.queue_depth(), 0);
}

TEST(AdmissionTest, WaiterAdmittedWhenSlotFreesFifo) {
  AdmissionController gate({.max_in_flight = 1, .max_queue_depth = 4, .lane = ""});
  auto held = gate.Admit();
  ASSERT_TRUE(held.ok());

  std::atomic<int> order{0};
  std::atomic<int> first_rank{-1}, second_rank{-1};
  std::thread first([&] {
    auto ticket = gate.Admit();
    EXPECT_TRUE(ticket.ok());
    first_rank = order.fetch_add(1);
  });
  while (gate.queue_depth() < 1) std::this_thread::yield();
  std::thread second([&] {
    auto ticket = gate.Admit();
    EXPECT_TRUE(ticket.ok());
    second_rank = order.fetch_add(1);
    // Ticket released at scope exit unblocks nothing further.
  });
  while (gate.queue_depth() < 2) std::this_thread::yield();

  held->Release();  // First queued waiter gets the slot first.
  first.join();
  second.join();
  EXPECT_EQ(first_rank.load(), 0);
  EXPECT_EQ(second_rank.load(), 1);
  EXPECT_EQ(gate.in_flight(), 0);
  EXPECT_EQ(gate.queue_depth(), 0);
}

TEST(AdmissionTest, CancellationUnparksQueuedWaiter) {
  AdmissionController gate({.max_in_flight = 1, .max_queue_depth = 4, .lane = ""});
  int64_t cancelled_before =
      CounterValue("quarry_admission_cancelled_total", {});
  auto held = gate.Admit();
  ASSERT_TRUE(held.ok());

  CancellationToken token;
  ExecContext ctx(token, Deadline::Infinite());
  Status waiter_status;
  std::thread waiter([&] {
    auto ticket = gate.Admit(&ctx);
    waiter_status = ticket.status();
  });
  while (gate.queue_depth() < 1) std::this_thread::yield();
  token.Cancel("caller left");
  waiter.join();
  EXPECT_TRUE(waiter_status.IsCancelled()) << waiter_status;
  EXPECT_EQ(CounterValue("quarry_admission_cancelled_total", {}),
            cancelled_before + 1);
  EXPECT_EQ(gate.queue_depth(), 0);
}

TEST(AdmissionTest, DeadlineExpiryWhileQueued) {
  AdmissionController gate({.max_in_flight = 1, .max_queue_depth = 4, .lane = ""});
  int64_t deadline_before =
      CounterValue("quarry_admission_deadline_total", {});
  auto held = gate.Admit();
  ASSERT_TRUE(held.ok());
  ExecContext ctx(Deadline::After(15.0));
  auto expired = gate.Admit(&ctx);
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded()) << expired.status();
  EXPECT_EQ(CounterValue("quarry_admission_deadline_total", {}),
            deadline_before + 1);
}

// ---- Quarry Submit* end-to-end --------------------------------------------

class SubmitTest : public ::testing::Test {
 protected:
  SubmitTest() {
    EXPECT_TRUE(datagen::PopulateTpch(&src_, {0.005, 23}).ok());
    core::QuarryConfig config;
    config.admission.max_in_flight = 1;
    config.admission.max_queue_depth = 0;  // Shed immediately under load.
    auto quarry = core::Quarry::Create(ontology::BuildTpchOntology(),
                                       ontology::BuildTpchMappings(), &src_,
                                       config);
    EXPECT_TRUE(quarry.ok()) << quarry.status();
    quarry_ = std::move(*quarry);
  }

  storage::Database src_;
  std::unique_ptr<core::Quarry> quarry_;
};

TEST_F(SubmitTest, SubmitRequirementAndDeployEndToEnd) {
  auto outcome =
      quarry_->SubmitRequirement(RevenueIr());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(quarry_->requirements().size(), 1u);
  auto deploy = quarry_->DeployServing();
  ASSERT_TRUE(deploy.ok()) << deploy.status();
  EXPECT_TRUE(deploy->success);
  EXPECT_TRUE(
      quarry_->warehouse().Acquire()->db().HasTable("fact_table_revenue"));
  // The gate is fully released after each call.
  EXPECT_EQ(quarry_->admission().in_flight(), 0);
}

TEST_F(SubmitTest, OverloadedGateShedsSubmit) {
  // Occupy the single slot directly, as a long-running request would.
  auto held = quarry_->admission().Admit();
  ASSERT_TRUE(held.ok());
  auto shed = quarry_->SubmitRequirement(RevenueIr());
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsOverloaded()) << shed.status();
  held->Release();
  auto ok = quarry_->SubmitRequirement(RevenueIr());
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST_F(SubmitTest, CancelledSubmitNeverMutatesTheDesign) {
  CancellationToken token;
  token.Cancel("never mind");
  ExecContext ctx(token, Deadline::Infinite());
  auto cancelled =
      quarry_->SubmitRequirement(RevenueIr(), &ctx);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled()) << cancelled.status();
  EXPECT_EQ(quarry_->requirements().size(), 0u);
  EXPECT_EQ(quarry_->admission().in_flight(), 0);
}

TEST_F(SubmitTest, ConcurrentSubmittersSerializeSafely) {
  // Two threads race SubmitRequirement through a 1-slot gate with no
  // queue: exactly one integrates, the other is shed with kOverloaded or
  // (if the first finished already) also succeeds. Run under TSan this
  // exercises the submit serialization for data races.
  std::atomic<int> succeeded{0}, overloaded{0};
  auto submit = [&](const std::string& id) {
    InformationRequirement ir = RevenueIr();
    ir.id = id;
    ir.name = "revenue_" + id;
    auto result = quarry_->SubmitRequirement(ir);
    if (result.ok()) {
      succeeded.fetch_add(1);
    } else {
      EXPECT_TRUE(result.status().IsOverloaded()) << result.status();
      overloaded.fetch_add(1);
    }
  };
  std::thread a([&] { submit("ir_a"); });
  std::thread b([&] { submit("ir_b"); });
  a.join();
  b.join();
  EXPECT_GE(succeeded.load(), 1);
  EXPECT_EQ(succeeded.load() + overloaded.load(), 2);
  EXPECT_EQ(quarry_->requirements().size(),
            static_cast<size_t>(succeeded.load()));
}

}  // namespace
}  // namespace quarry
