// Differential tests for the executor. EtlParallelTest (docs/ROBUSTNESS.md
// §8): every flow must produce byte-identical target tables and equivalent
// execution reports no matter how many workers run it, and the lifecycle /
// fault-injection contracts of a one-worker run must carry over.
// EtlVectorizedTest (DESIGN.md §8): the chunk runtime must match the
// row-at-a-time reference executor at every chunk size. Runs under TSan via
// tools/run_tsan.sh (ctest label `tsan`).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/fault_injection.h"
#include "common/prng.h"
#include "../bench/etl_bench_flows.h"
#include "datagen/tpch.h"
#include "etl_test_util.h"
#include "interpreter/interpreter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ontology/tpch_ontology.h"
#include "storage/database.h"

namespace quarry::etl {
namespace {

using testutil::BuildRandomFlow;
using testutil::BuildRandomSource;
using testutil::ExpectChunkSweepMatchesReference;
using testutil::MakeNode;
using testutil::RunFlow;
using testutil::RunFlowOpts;
using testutil::RunOutcome;
using testutil::StatsById;

const int kWorkerCounts[] = {2, 4, 8};

/// Differential equivalence against the serial run: byte-identical target
/// fingerprint and order-free identical report (row counts per node,
/// loaded tables, total attempts). Also asserts exactly-once execution: one
/// NodeStats entry per flow node. `label` names the parallel arm in failure
/// messages.
void ExpectEquivalent(const Flow& flow, const RunOutcome& serial,
                      const RunOutcome& other, const std::string& label) {
  ASSERT_TRUE(serial.status.ok()) << serial.status;
  ASSERT_TRUE(other.status.ok()) << label << ": " << other.status;
  EXPECT_EQ(other.fingerprint, serial.fingerprint)
      << "flow '" << flow.name() << "' diverged at " << label;
  EXPECT_EQ(other.report.rows_processed, serial.report.rows_processed)
      << label;
  EXPECT_EQ(other.report.attempts, serial.report.attempts) << label;
  EXPECT_EQ(other.report.loaded, serial.report.loaded) << label;
  EXPECT_EQ(other.report.recovered, serial.report.recovered) << label;
  auto serial_stats = StatsById(serial.report);
  auto other_stats = StatsById(other.report);
  ASSERT_EQ(serial_stats.size(), flow.num_nodes());
  ASSERT_EQ(other_stats.size(), flow.num_nodes());  // exactly once
  EXPECT_EQ(other.report.nodes.size(), flow.num_nodes());
  for (const auto& [id, want] : serial_stats) {
    auto it = other_stats.find(id);
    ASSERT_NE(it, other_stats.end())
        << "node " << id << " never ran (" << label << ")";
    EXPECT_EQ(it->second.rows_in, want.rows_in)
        << "node " << id << " (" << label << ")";
    EXPECT_EQ(it->second.rows_out, want.rows_out)
        << "node " << id << " (" << label << ")";
    EXPECT_EQ(it->second.attempts, want.attempts)
        << "node " << id << " (" << label << ")";
  }
}

void ExpectEquivalent(const Flow& flow, const RunOutcome& serial,
                      const RunOutcome& parallel, int workers) {
  ExpectEquivalent(flow, serial, parallel,
                   "workers=" + std::to_string(workers));
}

TEST(EtlParallelTest, RandomizedFlowsMatchSerialAtEveryWorkerCount) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto source = BuildRandomSource(seed);
    Flow flow = BuildRandomFlow(seed);
    ASSERT_TRUE(flow.Validate().ok()) << "seed " << seed;
    RunOutcome serial = RunFlow(*source, flow, 1);
    ASSERT_TRUE(serial.status.ok()) << "seed " << seed << ": "
                                    << serial.status;
    for (int workers : kWorkerCounts) {
      RunOutcome parallel = RunFlow(*source, flow, workers);
      ExpectEquivalent(flow, serial, parallel, workers);
    }
  }
}

TEST(EtlParallelTest, TpchRevenueFlowMatchesSerial) {
  storage::Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.005, 23}).ok());
  ontology::Ontology onto = ontology::BuildTpchOntology();
  ontology::SourceMapping mapping = ontology::BuildTpchMappings();
  interpreter::Interpreter interp(&onto, &mapping);
  req::InformationRequirement ir;
  ir.id = "ir_revenue";
  ir.name = "revenue";
  ir.focus_concept = "Lineitem";
  ir.measures.push_back(
      {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
       md::AggFunc::kSum});
  ir.dimensions.push_back({"Part.p_name"});
  ir.dimensions.push_back({"Supplier.s_name"});
  auto design = interp.Interpret(ir);
  ASSERT_TRUE(design.ok()) << design.status();

  RunOutcome serial = RunFlow(src, design->flow, 1);
  ASSERT_TRUE(serial.status.ok()) << serial.status;
  for (int workers : kWorkerCounts) {
    RunOutcome parallel = RunFlow(src, design->flow, workers);
    ExpectEquivalent(design->flow, serial, parallel, workers);
  }
  // The run went through the scheduler, not a silent serial fallback.
  EXPECT_GT(obs::MetricsRegistry::Instance()
                .counter("quarry_etl_scheduler_parallel_runs_total")
                .value(),
            0);
}

/// Wide multi-branch flow: `branches` independent extract→select→load
/// chains over the random source tables, all loading distinct targets.
Flow BuildWideFlow(int branches) {
  Flow flow("wide");
  for (int b = 0; b < branches; ++b) {
    std::string n = std::to_string(b);
    std::string table = "src" + std::to_string(b % 3);
    (void)flow.AddNode(
        MakeNode("ds" + n, OpType::kDatastore, {{"table", table}}));
    (void)flow.AddNode(
        MakeNode("ex" + n, OpType::kExtraction, {{"table", table}}));
    (void)flow.AddNode(MakeNode(
        "sel" + n, OpType::kSelection,
        {{"predicate", "v >= " + std::to_string(b % 7)}}));
    (void)flow.AddNode(MakeNode("load" + n, OpType::kLoader,
                                {{"table", "out" + n}}));
    (void)flow.AddEdge("ds" + n, "ex" + n);
    (void)flow.AddEdge("ex" + n, "sel" + n);
    (void)flow.AddEdge("sel" + n, "load" + n);
  }
  return flow;
}

TEST(EtlParallelTest, WideMultiBranchFlowMatchesSerial) {
  auto source = BuildRandomSource(/*seed=*/7);
  Flow flow = BuildWideFlow(6);
  ASSERT_TRUE(flow.Validate().ok());
  RunOutcome serial = RunFlow(*source, flow, 1);
  for (int workers : kWorkerCounts) {
    RunOutcome parallel = RunFlow(*source, flow, workers);
    ExpectEquivalent(flow, serial, parallel, workers);
    EXPECT_EQ(parallel.report.loaded.size(), 6u);
  }
}

TEST(EtlParallelTest, WorkerCountBeyondNodeCountIsHarmless) {
  auto source = BuildRandomSource(/*seed=*/3);
  Flow flow = BuildWideFlow(2);
  RunOutcome serial = RunFlow(*source, flow, 1);
  RunOutcome parallel = RunFlow(*source, flow, 64);
  ExpectEquivalent(flow, serial, parallel, 64);
}

TEST(EtlParallelTest, CompletionOrderRespectsDependencies) {
  for (uint64_t seed = 30; seed <= 36; ++seed) {
    auto source = BuildRandomSource(seed);
    Flow flow = BuildRandomFlow(seed);
    Checkpoint checkpoint;
    storage::Database target("dw");
    Executor executor(&(*source), &target);
    ExecOptions options;
    options.max_workers = 4;
    auto report = executor.Run(flow, options, RetryPolicy{}, &checkpoint);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.status();
    // The recorded completion order must be a topological order: every
    // predecessor appears before its consumer.
    std::set<std::string> seen;
    for (const std::string& id : checkpoint.completed) {
      EXPECT_TRUE(seen.insert(id).second) << id << " completed twice";
      for (const std::string& pred : flow.Predecessors(id)) {
        EXPECT_TRUE(seen.count(pred) > 0)
            << "seed " << seed << ": node " << id
            << " completed before its input " << pred;
      }
    }
    EXPECT_EQ(seen.size(), flow.num_nodes());
  }
}

TEST(EtlParallelTest, ExpiredDeadlineAbortsWithoutDeadlock) {
  auto source = BuildRandomSource(/*seed=*/5);
  Flow flow = BuildWideFlow(6);
  ExecContext ctx(Deadline::After(0.0));
  RunOutcome outcome = RunFlow(*source, flow, 4, RetryPolicy{}, nullptr,
                               &ctx);
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsDeadlineExceeded()) << outcome.status;
}

TEST(EtlParallelTest, ConcurrentCancellationNeverDeadlocks) {
  auto source = BuildRandomSource(/*seed=*/11, /*tables=*/3,
                                  /*max_rows=*/120);
  Flow flow = BuildWideFlow(8);
  CancellationToken token;
  ExecContext ctx(token, Deadline::Infinite());
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token.Cancel("test cancel");
  });
  RunOutcome outcome =
      RunFlow(*source, flow, 4, RetryPolicy{}, nullptr, &ctx);
  canceller.join();
  // The run either finished before the cancel landed or aborted with
  // kCancelled — both are fine; the property under test is termination.
  if (!outcome.status.ok()) {
    EXPECT_TRUE(outcome.status.IsCancelled()) << outcome.status;
  }
}

TEST(EtlParallelTest, BudgetTripAbortsAndChargesAtomically) {
  auto source = BuildRandomSource(/*seed=*/13);
  Flow flow = BuildWideFlow(6);
  ResourceBudget budget;
  budget.max_rows_materialized = 10;  // Trips almost immediately.
  ExecContext ctx(CancellationToken{}, Deadline::Infinite(), budget);
  Checkpoint checkpoint;
  storage::Database target("dw");
  Executor executor(&(*source), &target);
  ExecOptions options;
  options.max_workers = 4;
  auto report = executor.Run(flow, options, RetryPolicy{}, &checkpoint, &ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsResourceExhausted()) << report.status();
  ASSERT_TRUE(checkpoint.valid);
  EXPECT_FALSE(checkpoint.failed_node.empty());

  // Resume with a fresh allowance completes and converges on the serial
  // result.
  ctx.ResetCharges();
  auto resumed = executor.Resume(flow, options, &checkpoint, RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  RunOutcome serial = RunFlow(*source, flow, 1);
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

class EtlParallelFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Injector::Instance().Disable();
    fault::Injector::Instance().ClearConfigs();
  }
};

TEST_F(EtlParallelFaultTest, TransientFaultIsRetriedOnWhateverWorkerHitsIt) {
  auto source = BuildRandomSource(/*seed=*/17);
  Flow flow = BuildWideFlow(6);
  RunOutcome serial = RunFlow(*source, flow, 1);

  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Configure(
      "etl.exec.Selection", {.trigger_on_hit = 1, .max_failures = 1});
  fault::Injector::Instance().Enable(/*seed=*/9);
  RetryPolicy retry;
  retry.max_attempts = 3;
  RunOutcome parallel = RunFlow(*source, flow, 4, retry);
  fault::Injector::Instance().Disable();

  ASSERT_TRUE(parallel.status.ok()) << parallel.status;
  EXPECT_EQ(parallel.fingerprint, serial.fingerprint);
  EXPECT_TRUE(parallel.report.recovered);
  EXPECT_EQ(parallel.report.retried_nodes.size(), 1u);
  EXPECT_EQ(fault::Injector::Instance().FailureCount("etl.exec.Selection"),
            1);
}

TEST_F(EtlParallelFaultTest, MidParallelFaultCheckpointsAntichainAndResumes) {
  auto source = BuildRandomSource(/*seed=*/19);
  Flow flow = BuildWideFlow(6);
  RunOutcome serial = RunFlow(*source, flow, 1);

  // Permanently fail the third loader write: siblings already in flight
  // finish and are checkpointed; later nodes never start.
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Configure("etl.exec.Loader.write",
                                        {.fail_from_hit = 3});
  fault::Injector::Instance().Enable(/*seed=*/21);

  storage::Database target("dw");
  Executor executor(&(*source), &target);
  ExecOptions options;
  options.max_workers = 4;
  Checkpoint checkpoint;
  auto failed = executor.Run(flow, options, RetryPolicy{}, &checkpoint);
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(checkpoint.valid);
  EXPECT_FALSE(checkpoint.failed_node.empty());

  // The completed set is the antichain's downward closure: unique ids, and
  // every predecessor of a completed node is itself completed.
  std::set<std::string> completed;
  for (const std::string& id : checkpoint.completed) {
    EXPECT_TRUE(completed.insert(id).second) << id << " completed twice";
  }
  for (const std::string& id : completed) {
    for (const std::string& pred : flow.Predecessors(id)) {
      EXPECT_TRUE(completed.count(pred) > 0)
          << "completed node " << id << " missing input " << pred;
    }
  }
  EXPECT_LT(completed.size(), flow.num_nodes());

  // The fault clears; a *parallel* resume of the parallel checkpoint
  // converges on the serial fingerprint.
  fault::Injector::Instance().Disable();
  auto resumed = executor.Resume(flow, options, &checkpoint, RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->recovered);
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

TEST_F(EtlParallelFaultTest, SerialResumeAcceptsParallelCheckpoint) {
  auto source = BuildRandomSource(/*seed=*/23);
  Flow flow = BuildWideFlow(5);
  RunOutcome serial = RunFlow(*source, flow, 1);

  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Configure("etl.exec.Loader.write",
                                        {.fail_from_hit = 2});
  fault::Injector::Instance().Enable(/*seed=*/25);

  storage::Database target("dw");
  Executor executor(&(*source), &target);
  ExecOptions options;
  options.max_workers = 4;
  Checkpoint checkpoint;
  auto failed = executor.Run(flow, options, RetryPolicy{}, &checkpoint);
  ASSERT_FALSE(failed.ok());
  fault::Injector::Instance().Disable();

  // Cross-mode: the serial executor resumes a checkpoint a parallel run
  // produced (the completed *set* is mode-agnostic).
  auto resumed = executor.Resume(flow, &checkpoint, RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

TEST(EtlParallelTest, AliasedSourceAndTargetDegradeToSerial) {
  // A loader writing the same database the datastores read from cannot be
  // overlapped; such runs silently run serially and still succeed.
  auto serial_db = BuildRandomSource(/*seed=*/29);
  auto parallel_db = BuildRandomSource(/*seed=*/29);
  Flow flow("alias");
  (void)flow.AddNode(
      MakeNode("ds", OpType::kDatastore, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("ex", OpType::kExtraction, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("load", OpType::kLoader, {{"table", "copied"}}));
  (void)flow.AddEdge("ds", "ex");
  (void)flow.AddEdge("ex", "load");

  Executor serial_exec(serial_db.get(), serial_db.get());
  auto serial_report = serial_exec.Run(flow);
  ASSERT_TRUE(serial_report.ok()) << serial_report.status();

  Executor parallel_exec(parallel_db.get(), parallel_db.get());
  ExecOptions options;
  options.max_workers = 4;
  auto parallel_report = parallel_exec.Run(flow, options, RetryPolicy{});
  ASSERT_TRUE(parallel_report.ok()) << parallel_report.status();
  EXPECT_EQ(parallel_db->Fingerprint(), serial_db->Fingerprint());
}

TEST(EtlParallelTest, SchedulerMetricsAreRecorded) {
  auto source = BuildRandomSource(/*seed=*/31);
  Flow flow = BuildWideFlow(6);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  const int64_t runs_before =
      reg.counter("quarry_etl_scheduler_parallel_runs_total").value();
  RunOutcome parallel = RunFlow(*source, flow, 4);
  ASSERT_TRUE(parallel.status.ok()) << parallel.status;
  EXPECT_EQ(reg.counter("quarry_etl_scheduler_parallel_runs_total").value(),
            runs_before + 1);
  EXPECT_GT(reg.histogram("quarry_etl_scheduler_wavefront_width", "",
                          {1, 2, 4, 8, 16, 32, 64})
                .count(),
            0);
  int64_t worker_nodes = 0;
  for (int w = 0; w < 4; ++w) {
    worker_nodes +=
        reg.counter("quarry_etl_scheduler_worker_nodes_total", "",
                    {{"worker", std::to_string(w)}})
            .value();
  }
  EXPECT_GE(worker_nodes, static_cast<int64_t>(flow.num_nodes()));
}

/// Three datastores: a → p (Selection) → loader v; b → q → w (Selections)
/// → loader L3; c → loader L. TopologicalOrder() is a b c p q L v w L3,
/// while a FIFO ready queue with the loader chain edges L→v→L3 would run
/// w before v.
Flow BuildChainOrderFlow() {
  Flow flow("chain_order");
  (void)flow.AddNode(MakeNode("a", OpType::kDatastore, {{"table", "src0"}}));
  (void)flow.AddNode(MakeNode("b", OpType::kDatastore, {{"table", "src1"}}));
  (void)flow.AddNode(MakeNode("c", OpType::kDatastore, {{"table", "src2"}}));
  (void)flow.AddNode(
      MakeNode("p", OpType::kSelection, {{"predicate", "v >= 3"}}));
  (void)flow.AddNode(
      MakeNode("q", OpType::kSelection, {{"predicate", "v >= 5"}}));
  (void)flow.AddNode(
      MakeNode("w", OpType::kSelection, {{"predicate", "w > 10.0"}}));
  (void)flow.AddNode(MakeNode("v", OpType::kLoader, {{"table", "out_v"}}));
  (void)flow.AddNode(MakeNode("L3", OpType::kLoader, {{"table", "out_l3"}}));
  (void)flow.AddNode(MakeNode("L", OpType::kLoader, {{"table", "out_l"}}));
  (void)flow.AddEdge("a", "p");
  (void)flow.AddEdge("p", "v");
  (void)flow.AddEdge("b", "q");
  (void)flow.AddEdge("q", "w");
  (void)flow.AddEdge("w", "L3");
  (void)flow.AddEdge("c", "L");
  return flow;
}

std::vector<std::string> NodeOrder(const ExecutionReport& report) {
  std::vector<std::string> ids;
  for (const NodeStats& stats : report.nodes) ids.push_back(stats.node_id);
  return ids;
}

TEST(EtlParallelTest, OneWorkerRunsInTopologicalOrderOnTheCallingThread) {
  auto source = BuildRandomSource(/*seed=*/37);
  Flow flow = BuildChainOrderFlow();
  ASSERT_TRUE(flow.Validate().ok());
  auto order = flow.TopologicalOrder();
  ASSERT_TRUE(order.ok()) << order.status();
  ASSERT_EQ(*order, (std::vector<std::string>{"a", "b", "c", "p", "q", "L",
                                              "v", "w", "L3"}));
  RunOutcome reference = testutil::RunReference(*source, flow);
  ASSERT_TRUE(reference.status.ok()) << reference.status;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  const int64_t parallel_runs_before =
      reg.counter("quarry_etl_scheduler_parallel_runs_total").value();
  obs::TraceRecorder::Instance().Start();
  storage::Database target("dw");
  Executor executor(source.get(), &target);
  Checkpoint checkpoint;
  auto report = executor.Run(flow, ExecOptions{}, RetryPolicy{}, &checkpoint);
  obs::TraceRecorder::Instance().Stop();
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(NodeOrder(*report), *order);
  EXPECT_EQ(checkpoint.completed, *order);
  EXPECT_EQ(target.Fingerprint(), reference.fingerprint);
  EXPECT_EQ(report->loaded, reference.report.loaded);
  EXPECT_EQ(reg.counter("quarry_etl_scheduler_parallel_runs_total").value(),
            parallel_runs_before);
#ifndef QUARRY_DISABLE_TRACING
  // Every node span nests in the run span on the same thread: the one
  // worker is the calling thread.
  std::vector<obs::SpanRecord> spans = obs::TraceRecorder::Instance().Snapshot();
  const obs::SpanRecord* run = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "etl.run") run = &span;
  }
  ASSERT_NE(run, nullptr);
  size_t node_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name.rfind("etl.node.", 0) != 0) continue;
    ++node_spans;
    EXPECT_EQ(span.tid, run->tid) << span.name;
    EXPECT_EQ(span.depth, run->depth + 1) << span.name;
  }
  EXPECT_EQ(node_spans, flow.num_nodes());
#endif  // QUARRY_DISABLE_TRACING
}

TEST_F(EtlParallelFaultTest, OneWorkerResumeRunsInTopologicalOrder) {
  auto source = BuildRandomSource(/*seed=*/37);
  Flow flow = BuildChainOrderFlow();
  auto order = flow.TopologicalOrder();
  ASSERT_TRUE(order.ok()) << order.status();
  RunOutcome reference = testutil::RunReference(*source, flow);
  ASSERT_TRUE(reference.status.ok()) << reference.status;

  // The selections run p, q, w: the third hit fails w for good.
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Configure("etl.exec.Selection",
                                        {.fail_from_hit = 3});
  fault::Injector::Instance().Enable(/*seed=*/39);
  storage::Database target("dw");
  Executor executor(source.get(), &target);
  Checkpoint checkpoint;
  auto failed = executor.Run(flow, ExecOptions{}, RetryPolicy{}, &checkpoint);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(checkpoint.failed_node, "w");
  const std::vector<std::string> prefix(order->begin(), order->begin() + 7);
  EXPECT_EQ(checkpoint.completed, prefix);

  fault::Injector::Instance().Disable();
  auto resumed = executor.Resume(flow, ExecOptions{}, &checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(NodeOrder(*resumed), (std::vector<std::string>{"w", "L3"}));
  EXPECT_EQ(checkpoint.completed, *order);
  EXPECT_EQ(target.Fingerprint(), reference.fingerprint);
  EXPECT_EQ(resumed->loaded, reference.report.loaded);
}

// ---------------------------------------------------------------------------
// Differential harness (DESIGN.md §8): the chunk runtime against the
// row-at-a-time reference executor (etl_reference.h). Every flow runs at
// chunk sizes 1, 7, 1024 and rows+1, each with 1 and 4 workers, and must
// land on the reference's exact target bytes and per-node rows_in/rows_out.

TEST(EtlVectorizedTest, RandomizedFlowsMatchReference) {
  std::set<OpType> covered;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto source = BuildRandomSource(seed);
    Flow flow = BuildRandomFlow(seed);
    ASSERT_TRUE(flow.Validate().ok()) << "seed " << seed;
    for (const auto& [id, node] : flow.nodes()) covered.insert(node.type);
    ExpectChunkSweepMatchesReference(*source, flow,
                                     "seed " + std::to_string(seed));
  }
  // The generator reaches every operator type, so every kernel is compared.
  EXPECT_EQ(covered.size(), 11u);
}

TEST(EtlVectorizedTest, TpchRevenueFlowMatchesReference) {
  storage::Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.005, 23}).ok());
  ontology::Ontology onto = ontology::BuildTpchOntology();
  ontology::SourceMapping mapping = ontology::BuildTpchMappings();
  interpreter::Interpreter interp(&onto, &mapping);
  req::InformationRequirement ir;
  ir.id = "ir_revenue";
  ir.name = "revenue";
  ir.focus_concept = "Lineitem";
  ir.measures.push_back(
      {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
       md::AggFunc::kSum});
  ir.dimensions.push_back({"Part.p_name"});
  ir.dimensions.push_back({"Supplier.s_name"});
  auto design = interp.Interpret(ir);
  ASSERT_TRUE(design.ok()) << design.status();
  ExpectChunkSweepMatchesReference(src, design->flow, "tpch revenue");
}

TEST(EtlVectorizedTest, BenchFlowsMatchReference) {
  // bench_etl_vectorized's three timed flows, on real TPC-H data.
  storage::Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.005, 23}).ok());
  for (const Flow& flow : {benchflows::BuildScanAggFlow(),
                           benchflows::BuildFilterProjectLoadFlow(),
                           benchflows::BuildJoinGroupLoadFlow()}) {
    ASSERT_TRUE(flow.Validate().ok()) << flow.name();
    ExpectChunkSweepMatchesReference(src, flow, flow.name());
  }
}

// ---------------------------------------------------------------------------
// Key semantics the random flows never reach (they join only on the
// non-NULL INT `id`): NULL keys on either side, INT against DOUBLE keys
// (1 vs 1.0, 0 vs -0.0 vs 0.0), ints beyond 2^53 against the doubles they
// round to, two-column INT+STRING keys, and keys read from a kMixed
// segment. Each case drives inner and left Join, Aggregation,
// SurrogateKey and the keyed Loader merge through the chunk sweep.

constexpr int64_t kTwo53 = int64_t{1} << 53;

/// Adds table `name` (id INT NOT NULL, k `key_type`, s STRING, v INT) with
/// one row per (k, s) pair; v is 10 * id, NULL on every fifth row.
void AddKeyTable(storage::Database* db, const std::string& name,
                 storage::DataType key_type,
                 const std::vector<std::pair<storage::Value,
                                             storage::Value>>& keys) {
  using storage::DataType;
  using storage::Value;
  storage::TableSchema schema(name);
  ASSERT_TRUE(schema.AddColumn({"id", DataType::kInt64, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"k", key_type, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"s", DataType::kString, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"v", DataType::kInt64, true}).ok());
  storage::Table* table = *db->CreateTable(std::move(schema));
  for (size_t i = 0; i < keys.size(); ++i) {
    const int64_t id = static_cast<int64_t>(i);
    ASSERT_TRUE(table
                    ->Insert({Value::Int(id), keys[i].first, keys[i].second,
                              i % 5 == 4 ? Value::Null()
                                         : Value::Int(10 * id)})
                    .ok())
        << name << " row " << i;
  }
}

/// `ki` holds INT keys, `kd` the same columns with DOUBLE keys (2.5 is the
/// only one an INT column cannot hold), `kx` doubles at the edges of int64.
std::unique_ptr<storage::Database> BuildKeySource() {
  using storage::DataType;
  using storage::Value;
  auto db = std::make_unique<storage::Database>("keys");
  auto I = [](int64_t i) { return Value::Int(i); };
  auto D = [](double d) { return Value::Double(d); };
  auto S = [](const char* s) { return Value::String(s); };
  const Value null;
  AddKeyTable(db.get(), "ki", DataType::kInt64,
              {{I(1), S("a")},
               {null, S("a")},
               {I(0), S("b")},
               {I(kTwo53), S("a")},
               {I(kTwo53 + 1), S("a")},
               {I(7), S("c")},
               {I(1), S("b")},
               {null, null},
               {I(INT64_MAX), S("d")},
               {I(INT64_MIN), S("d")},
               {I(-5), S("e")},
               {I(1), S("a")},
               {I(7), null}});
  AddKeyTable(db.get(), "kd", DataType::kDouble,
              {{D(1.0), S("a")},
               {null, S("a")},
               {D(-0.0), S("b")},
               {D(0.0), S("b")},
               {D(static_cast<double>(kTwo53)), S("a")},
               {D(2.5), S("c")},
               {D(7.0), S("c")},
               {D(1.0), S("b")},
               {null, null},
               {D(-5.0), S("e")},
               {D(1.0), S("a")}});
  AddKeyTable(db.get(), "kx", DataType::kDouble,
              {{D(0x1p63), S("d")},
               {D(-0x1p63), S("d")},
               {D(static_cast<double>(kTwo53)), S("a")},
               {D(static_cast<double>(kTwo53 + 2)), S("a")},
               {D(1e300), null},
               {D(-0.0), S("b")},
               {null, S("a")}});
  return db;
}

/// Datastore -> extraction for `table`; returns the extraction's id.
std::string AddScan(Flow* flow, const std::string& table) {
  (void)flow->AddNode(
      MakeNode("ds_" + table, OpType::kDatastore, {{"table", table}}));
  (void)flow->AddNode(
      MakeNode("ex_" + table, OpType::kExtraction, {{"table", table}}));
  (void)flow->AddEdge("ds_" + table, "ex_" + table);
  return "ex_" + table;
}

/// Copies `columns` of `from` under the names prefix + column and projects
/// onto the copies, so a join with the original keeps distinct names.
std::string AddRenamed(Flow* flow, const std::string& from,
                       const std::vector<std::string>& columns,
                       const std::string& prefix) {
  std::string last = from;
  std::string kept;
  for (const std::string& c : columns) {
    const std::string id = "fn_" + prefix + c;
    (void)flow->AddNode(MakeNode(id, OpType::kFunction,
                                 {{"column", prefix + c}, {"expr", c}}));
    (void)flow->AddEdge(last, id);
    last = id;
    kept += (kept.empty() ? "" : ",") + prefix + c;
  }
  const std::string proj = "proj_" + prefix;
  (void)flow->AddNode(
      MakeNode(proj, OpType::kProjection, {{"columns", kept}}));
  (void)flow->AddEdge(last, proj);
  return proj;
}

/// Loads `from` into table `table` (merging on `keys` when non-empty).
void AddLoad(Flow* flow, const std::string& from, const std::string& table,
             const std::string& keys = "") {
  std::map<std::string, std::string> params{{"table", table}};
  if (!keys.empty()) params["keys"] = keys;
  (void)flow->AddNode(MakeNode("load_" + table, OpType::kLoader, params));
  (void)flow->AddEdge(from, "load_" + table);
}

/// Inner and left joins of `left` with `right` on the given key lists,
/// each loaded into its own table.
void AddJoins(Flow* flow, const std::string& left, const std::string& right,
              const std::string& left_keys, const std::string& right_keys,
              const std::string& tag) {
  for (const char* type : {"inner", "left"}) {
    const std::string id = "join_" + tag + "_" + type;
    (void)flow->AddNode(MakeNode(
        id, OpType::kJoin,
        {{"left", left_keys}, {"right", right_keys}, {"type", type}}));
    (void)flow->AddEdge(left, id);
    (void)flow->AddEdge(right, id);
    AddLoad(flow, id, "out_" + id);
  }
}

/// Aggregation, SurrogateKey and a keyed loader, all keyed on `keys` of
/// `from`, each loaded into its own table.
void AddKeyedConsumers(Flow* flow, const std::string& from,
                       const std::string& keys, const std::string& measure,
                       const std::string& tag) {
  const std::string agg = "agg_" + tag;
  (void)flow->AddNode(MakeNode(
      agg, OpType::kAggregation,
      {{"group", keys},
       {"aggs", "COUNT(*) AS n; MIN(" + measure + ") AS low; MAX(" +
                    measure + ") AS high"}}));
  (void)flow->AddEdge(from, agg);
  AddLoad(flow, agg, "out_" + agg);
  const std::string skey = "skey_" + tag;
  (void)flow->AddNode(MakeNode(skey, OpType::kSurrogateKey,
                               {{"keys", keys}, {"column", "sk"}}));
  (void)flow->AddEdge(from, skey);
  AddLoad(flow, skey, "out_" + skey);
  AddLoad(flow, from, "out_merge_" + tag, keys);
}

/// INT keys against DOUBLE keys on `keys` ("k" or "k,s"): joins of ki with
/// a renamed kd (and, on "k", with kx), and the keyed consumers over
/// ki UNION kd, whose chunks alternate between INT and DOUBLE segments.
Flow BuildCrossTypeKeyFlow(const std::vector<std::string>& keys) {
  std::string left_keys, right_keys, tag;
  for (const std::string& k : keys) {
    left_keys += (left_keys.empty() ? "" : ",") + k;
    right_keys += (right_keys.empty() ? "r" : ",r") + k;
    tag += k;
  }
  Flow flow("keys_" + tag);
  const std::string ki = AddScan(&flow, "ki");
  const std::string kd = AddScan(&flow, "kd");
  const std::string kd_renamed = AddRenamed(&flow, kd, {"id", "k", "s"}, "r");
  AddJoins(&flow, ki, kd_renamed, left_keys, right_keys, "id");
  if (keys.size() == 1) {
    const std::string kx = AddScan(&flow, "kx");
    AddJoins(&flow, ki, AddRenamed(&flow, kx, {"id", "k"}, "x"), "k", "xk",
             "ix");
  }
  (void)flow.AddNode(MakeNode("union", OpType::kUnion, {}));
  (void)flow.AddEdge(ki, "union");
  (void)flow.AddEdge(kd, "union");
  AddKeyedConsumers(&flow, "union", left_keys, "v", "u");
  // A keyed merge into a table that already holds duplicate keys (ki
  // loaded without keys): kd's rows fill the first row with their key.
  // Loaders write in topological order, and the merge sits one node
  // deeper than the plain load. kd's 2.5 (id 5) stays out: dups.k is an
  // INT column, which holds a DOUBLE only when it is an exact int64.
  AddLoad(&flow, ki, "dups");
  (void)flow.AddNode(
      MakeNode("sel_dups", OpType::kSelection, {{"predicate", "id <> 5"}}));
  (void)flow.AddEdge(kd, "sel_dups");
  (void)flow.AddNode(MakeNode("proj_dups", OpType::kProjection,
                              {{"columns", "id,k,s,v"}}));
  (void)flow.AddEdge("sel_dups", "proj_dups");
  (void)flow.AddNode(MakeNode("load_dups_merge", OpType::kLoader,
                              {{"table", "dups"}, {"keys", left_keys}}));
  (void)flow.AddEdge("proj_dups", "load_dups_merge");
  return flow;
}

TEST(EtlVectorizedTest, CrossTypeAndNullKeysMatchReference) {
  auto source = BuildKeySource();
  for (const std::vector<std::string>& keys :
       {std::vector<std::string>{"k"}, std::vector<std::string>{"k", "s"}}) {
    Flow flow = BuildCrossTypeKeyFlow(keys);
    ASSERT_TRUE(flow.Validate().ok()) << flow.name();
    ExpectChunkSweepMatchesReference(*source, flow, flow.name());
  }
  // The cases above are live: 1 meets 1.0 and 0 meets -0.0/0.0 in the
  // joins, while 2^53 + 1 finds no partner and NULLs never join.
  RunOutcome run = RunFlow(*source, BuildCrossTypeKeyFlow({"k"}), 1);
  ASSERT_TRUE(run.status.ok()) << run.status;
  auto stats = StatsById(run.report);
  // ki's non-NULL keys 1,1,1 meet kd's three 1.0s (9 rows), 0 meets -0.0
  // and 0.0 (2), 2^53 meets 2^53 (1), 7 and 7 meet 7.0 (2), -5 meets -5.0.
  EXPECT_EQ(stats["join_id_inner"].rows_out, 15);
  // ki has 13 rows; the unmatched ones (2 NULL, 2^53 + 1, INT64_MAX,
  // INT64_MIN) are padded once each.
  EXPECT_EQ(stats["join_id_left"].rows_out, 20);
  // kx: 2^53 meets 2^53 and -2^63 meets INT64_MIN; 2^63 is not INT64_MAX.
  EXPECT_EQ(stats["join_ix_inner"].rows_out, 3);
}

TEST(EtlVectorizedTest, MixedSegmentKeysMatchReference) {
  // A SUM whose groups split between INT and DOUBLE emits one kMixed
  // segment (3, 3.0, 4, 4.0, NULL, 0.0, 0, 2.25, 5, 5.0, ...); that column
  // is then the key of every hash-keyed operator.
  using storage::DataType;
  using storage::Value;
  storage::Database source("mixed");
  storage::TableSchema schema("mx");
  ASSERT_TRUE(schema.AddColumn({"g", DataType::kString, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"i", DataType::kInt64, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"d", DataType::kDouble, true}).ok());
  storage::Table* table = *source.CreateTable(std::move(schema));
  const Value null;
  const std::vector<storage::Row> rows = {
      {Value::String("a"), Value::Int(1), null},
      {Value::String("a"), Value::Int(2), null},
      {Value::String("b"), null, Value::Double(1.5)},
      {Value::String("b"), null, Value::Double(1.5)},
      {Value::String("c"), Value::Int(4), null},
      {Value::String("d"), null, Value::Double(4.0)},
      {Value::String("e"), null, null},
      {Value::String("f"), null, null},
      {Value::String("g"), null, Value::Double(-0.0)},
      {Value::String("h"), Value::Int(0), null},
      {Value::String("i"), null, Value::Double(2.25)},
      {Value::String("j"), Value::Int(3), null},
      {null, Value::Int(5), null},
      {Value::String("k"), null, Value::Double(5.0)},
  };
  for (const storage::Row& row : rows) ASSERT_TRUE(table->Insert(row).ok());

  Flow flow("mixed_keys");
  const std::string mx = AddScan(&flow, "mx");
  // Branch I: n = i (INT, NULL where i is); branch D: n = d for d >= 0.
  (void)flow.AddNode(
      MakeNode("fn_i", OpType::kFunction, {{"column", "n"}, {"expr", "i * 1"}}));
  (void)flow.AddNode(
      MakeNode("proj_i", OpType::kProjection, {{"columns", "g,n"}}));
  (void)flow.AddNode(
      MakeNode("sel_d", OpType::kSelection, {{"predicate", "d >= 0"}}));
  (void)flow.AddNode(
      MakeNode("fn_d", OpType::kFunction, {{"column", "n"}, {"expr", "d * 1"}}));
  (void)flow.AddNode(
      MakeNode("proj_d", OpType::kProjection, {{"columns", "g,n"}}));
  (void)flow.AddNode(MakeNode("union", OpType::kUnion, {}));
  (void)flow.AddNode(MakeNode("sums", OpType::kAggregation,
                              {{"group", "g"}, {"aggs", "SUM(n) AS total"}}));
  (void)flow.AddEdge(mx, "fn_i");
  (void)flow.AddEdge("fn_i", "proj_i");
  (void)flow.AddEdge(mx, "sel_d");
  (void)flow.AddEdge("sel_d", "fn_d");
  (void)flow.AddEdge("fn_d", "proj_d");
  (void)flow.AddEdge("proj_i", "union");
  (void)flow.AddEdge("proj_d", "union");
  (void)flow.AddEdge("union", "sums");
  AddJoins(&flow, "sums", AddRenamed(&flow, "sums", {"g", "total"}, "r"),
           "total", "rtotal", "sums");
  AddKeyedConsumers(&flow, "sums", "total", "g", "sums");
  ASSERT_TRUE(flow.Validate().ok());
  ExpectChunkSweepMatchesReference(source, flow, "mixed_keys");

  // The key column really is mixed, and equal values of either type meet.
  RunOutcome run = RunFlow(source, flow, 1);
  ASSERT_TRUE(run.status.ok()) << run.status;
  auto stats = StatsById(run.report);
  EXPECT_EQ(stats["sums"].rows_out, 12);
  // Groups of total: {3, 3.0, 3}, {4, 4.0}, {NULL, NULL}, {0.0, 0},
  // {2.25}, {5, 5.0}.
  EXPECT_EQ(stats["agg_sums"].rows_out, 6);
}

TEST(EtlVectorizedTest, MixedIntDoubleColumnLoadsAsDouble) {
  // A loader that creates a table gives a column whose values mix INT and
  // DOUBLE the DOUBLE type, so no value is narrowed: a Union of an INT and
  // a DOUBLE branch, and a SUM whose groups split between the two types
  // (a kMixed segment that starts with an INT).
  using storage::DataType;
  using storage::Value;
  storage::Database source("mixed_load");
  storage::TableSchema schema("mx");
  ASSERT_TRUE(schema.AddColumn({"g", DataType::kString, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"i", DataType::kInt64, true}).ok());
  ASSERT_TRUE(schema.AddColumn({"d", DataType::kDouble, true}).ok());
  storage::Table* table = *source.CreateTable(std::move(schema));
  const Value null;
  for (const storage::Row& row : std::vector<storage::Row>{
           {Value::String("a"), Value::Int(1), null},
           {Value::String("a"), Value::Int(2), null},
           {Value::String("b"), null, Value::Double(1.5)},
           {Value::String("b"), null, Value::Double(1.25)},
           {Value::String("c"), Value::Int(3), null},
           {Value::String("c"), null, Value::Double(0.5)},
           {Value::String("d"), null, null}}) {
    ASSERT_TRUE(table->Insert(row).ok());
  }
  Flow flow("mixed_load");
  const std::string mx = AddScan(&flow, "mx");
  for (const char* c : {"i", "d"}) {
    const std::string fn = std::string("fn_") + c;
    const std::string proj = std::string("proj_") + c;
    (void)flow.AddNode(
        MakeNode(fn, OpType::kFunction, {{"column", "x"}, {"expr", c}}));
    (void)flow.AddNode(
        MakeNode(proj, OpType::kProjection, {{"columns", "g,x"}}));
    (void)flow.AddEdge(mx, fn);
    (void)flow.AddEdge(fn, proj);
  }
  (void)flow.AddNode(MakeNode("union", OpType::kUnion, {}));
  (void)flow.AddEdge("proj_i", "union");
  (void)flow.AddEdge("proj_d", "union");
  AddLoad(&flow, "union", "out_union");
  (void)flow.AddNode(MakeNode("sums", OpType::kAggregation,
                              {{"group", "g"}, {"aggs", "SUM(x) AS total"}}));
  (void)flow.AddEdge("union", "sums");
  AddLoad(&flow, "sums", "out_sums", "g");
  ASSERT_TRUE(flow.Validate().ok());
  ExpectChunkSweepMatchesReference(source, flow, "mixed_load");

  storage::Database target("dw");
  Executor executor(&source, &target);
  ASSERT_TRUE(executor.Run(flow).ok());
  const storage::Table& loaded = **target.GetTable("out_union");
  EXPECT_EQ(loaded.schema().columns()[1].type, DataType::kDouble);
  ASSERT_EQ(loaded.num_rows(), 14u);
  EXPECT_DOUBLE_EQ(loaded.row(7 + 3)[1].as_double(), 1.25);
  const storage::Table& sums = **target.GetTable("out_sums");
  EXPECT_EQ(sums.schema().columns()[1].type, DataType::kDouble);
  const std::vector<storage::Row> rows = sums.rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0][1].as_double(), 3.0);   // a: 1 + 2
  EXPECT_DOUBLE_EQ(rows[1][1].as_double(), 2.75);  // b: 1.5 + 1.25
  EXPECT_DOUBLE_EQ(rows[2][1].as_double(), 3.5);   // c: 3 + 0.5
  EXPECT_TRUE(rows[3][1].is_null());               // d: no values
}

TEST(EtlVectorizedTest, ZeroColumnIntermediateMatchesReference) {
  // A projection onto no columns still carries its rows (a chunk counts
  // its own rows), so COUNT(*) over it sees every input row.
  auto source = BuildRandomSource(/*seed=*/61);
  Flow flow("zero_column");
  (void)flow.AddNode(
      MakeNode("ds", OpType::kDatastore, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("ex", OpType::kExtraction, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("sel", OpType::kSelection, {{"predicate", "v >= 10"}}));
  (void)flow.AddNode(
      MakeNode("proj", OpType::kProjection, {{"columns", ""}}));
  (void)flow.AddNode(MakeNode("agg", OpType::kAggregation,
                              {{"group", ""}, {"aggs", "COUNT(*) AS n"}}));
  (void)flow.AddNode(
      MakeNode("load", OpType::kLoader, {{"table", "out"}}));
  (void)flow.AddEdge("ds", "ex");
  (void)flow.AddEdge("ex", "sel");
  (void)flow.AddEdge("sel", "proj");
  (void)flow.AddEdge("proj", "agg");
  (void)flow.AddEdge("agg", "load");
  ASSERT_TRUE(flow.Validate().ok());
  ExpectChunkSweepMatchesReference(*source, flow, "zero_column");

  RunOutcome run = RunFlow(*source, flow, 1);
  ASSERT_TRUE(run.status.ok()) << run.status;
  auto stats = StatsById(run.report);
  EXPECT_GT(stats["proj"].rows_out, 0);
  EXPECT_EQ(stats["proj"].rows_out, stats["sel"].rows_out);
  EXPECT_EQ(stats["agg"].rows_out, 1);
}

TEST(EtlVectorizedTest, ChainedSelectionsCarrySelectionVectors) {
  // Selection-on-selection composes a selection vector with an already
  // filtered chunk — the carry-over path chunk sizes can't hide: at
  // chunk_size 1 every chunk is a singleton, at 7 the last chunk of each
  // run is partial, at rows+1 one chunk covers the whole table.
  auto source = BuildRandomSource(/*seed=*/37);
  Flow flow("chained_sel");
  (void)flow.AddNode(
      MakeNode("ds", OpType::kDatastore, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("ex", OpType::kExtraction, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("s1", OpType::kSelection, {{"predicate", "v >= 10"}}));
  (void)flow.AddNode(
      MakeNode("s2", OpType::kSelection, {{"predicate", "v < 40"}}));
  (void)flow.AddNode(
      MakeNode("s3", OpType::kSelection, {{"predicate", "id >= 2"}}));
  (void)flow.AddNode(MakeNode(
      "fn", OpType::kFunction, {{"column", "f"}, {"expr", "v * 2 + 1"}}));
  (void)flow.AddNode(
      MakeNode("proj", OpType::kProjection, {{"columns", "id,f,s"}}));
  (void)flow.AddNode(
      MakeNode("load", OpType::kLoader, {{"table", "out"}}));
  (void)flow.AddEdge("ds", "ex");
  (void)flow.AddEdge("ex", "s1");
  (void)flow.AddEdge("s1", "s2");
  (void)flow.AddEdge("s2", "s3");
  (void)flow.AddEdge("s3", "fn");
  (void)flow.AddEdge("fn", "proj");
  (void)flow.AddEdge("proj", "load");
  ASSERT_TRUE(flow.Validate().ok());
  ExpectChunkSweepMatchesReference(*source, flow, "chained_sel");
}

TEST(EtlVectorizedTest, EmptyStreamsMatchReference) {
  // A selection that drops every row empties the whole downstream —
  // aggregation over nothing, a loader that must defer table creation
  // exactly like the reference does.
  auto source = BuildRandomSource(/*seed=*/41);
  Flow flow("empty_stream");
  (void)flow.AddNode(
      MakeNode("ds", OpType::kDatastore, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("ex", OpType::kExtraction, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("sel", OpType::kSelection, {{"predicate", "v < -1"}}));
  (void)flow.AddNode(MakeNode(
      "agg", OpType::kAggregation,
      {{"group", "id"}, {"aggs", "SUM(v) AS total"}}));
  (void)flow.AddNode(
      MakeNode("load_rows", OpType::kLoader, {{"table", "out_rows"}}));
  (void)flow.AddNode(
      MakeNode("load_agg", OpType::kLoader, {{"table", "out_agg"}}));
  (void)flow.AddEdge("ds", "ex");
  (void)flow.AddEdge("ex", "sel");
  (void)flow.AddEdge("sel", "agg");
  (void)flow.AddEdge("sel", "load_rows");
  (void)flow.AddEdge("agg", "load_agg");
  ASSERT_TRUE(flow.Validate().ok());
  ExpectChunkSweepMatchesReference(*source, flow, "empty_stream");
}

// ---------------------------------------------------------------------------
// Random expressions (DESIGN.md §8): the column evaluator against the
// reference's row walk. Each expression runs as a Selection predicate on
// rows without a selection vector and, behind a pre-filter, as a Selection
// and as a Function, through the chunk sweep. Where the reference fails,
// the serial runtime must fail at the same node with the same status.

int64_t ExprRows(const char* path) {
  return obs::MetricsRegistry::Instance()
      .counter("quarry_etl_expr_rows_total", "", {{"path", path}})
      .value();
}

TEST(EtlVectorizedTest, RandomExpressionsMatchReference) {
  const int64_t scalar_rows = ExprRows("scalar");
  const int64_t typed_rows = ExprRows("typed");
  int cases = 0;
  int failed = 0;
  int with_nulls = 0;
  for (uint64_t seed = 1; seed <= 160; ++seed) {
    auto source = testutil::BuildExprSource(seed % 8);
    Prng prng(seed);
    const std::string expr =
        testutil::RandomExpr(&prng, 4, prng.Chance(0.5) ? 'b' : 'a');
    const Flow flow = testutil::BuildExprFlow(expr, seed % 2 == 0);
    ASSERT_TRUE(flow.Validate().ok()) << expr;
    ++cases;
    const Status want = testutil::ExpectChunkSweepAgreesWithReference(
        *source, flow, "seed " + std::to_string(seed) + " " + expr);
    if (!want.ok()) {
      ++failed;
      continue;
    }
    storage::Database target("dw");
    ASSERT_TRUE(reference::Run(*source, flow, &target).ok());
    const storage::Table* out = *target.GetTable("out_fn");
    for (const storage::Row& row : out->rows()) {
      if (row[1].is_null()) {
        ++with_nulls;
        break;
      }
    }
  }
  // The generator reaches errors, NULL results and the scalar path, and
  // most expressions still run through.
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, cases / 2);
  EXPECT_GT(with_nulls, 0);
  EXPECT_GT(ExprRows("scalar"), scalar_rows);
  EXPECT_GT(ExprRows("typed"), typed_rows);
}

// ---------------------------------------------------------------------------
// Column liveness (DESIGN.md §8): a join gathers only the output columns
// some downstream operator may read and leaves every other segment slot
// empty. Each case runs the chunk sweep against the reference and asserts
// that the join-segment counter moved as the case needs, so this coverage
// cannot silently stop pruning.

int64_t JoinSegments(const char* state) {
  return obs::MetricsRegistry::Instance()
      .counter("quarry_etl_join_segments_total", "", {{"state", state}})
      .value();
}

/// The chunk sweep of `flow`, asserting that its joins left some segment
/// slot empty (`expect_skipped`) or gathered every column.
void ExpectJoinSweepMatchesReference(const storage::Database& source,
                                     const Flow& flow, bool expect_skipped) {
  ASSERT_TRUE(flow.Validate().ok()) << flow.name();
  const int64_t skipped = JoinSegments("skipped");
  const int64_t gathered = JoinSegments("gathered");
  ExpectChunkSweepMatchesReference(source, flow, flow.name());
  EXPECT_GT(JoinSegments("gathered"), gathered) << flow.name();
  if (expect_skipped) {
    EXPECT_GT(JoinSegments("skipped"), skipped)
        << flow.name() << ": no join skipped a column";
  } else {
    EXPECT_EQ(JoinSegments("skipped"), skipped)
        << flow.name() << ": a join skipped a column";
  }
}

/// Adds node `id` fed by `inputs` in edge order; returns `id`.
std::string AddOp(Flow* flow, const std::string& id, OpType type,
                  std::map<std::string, std::string> params,
                  const std::vector<std::string>& inputs) {
  (void)flow->AddNode(MakeNode(id, type, std::move(params)));
  for (const std::string& in : inputs) (void)flow->AddEdge(in, id);
  return id;
}

/// Equi-join `left` ⋈ `right` on `left_key` = `right_key`.
std::string AddJoin(Flow* flow, const std::string& id, const std::string& left,
                    const std::string& right, const std::string& left_key,
                    const std::string& right_key,
                    const std::string& type = "inner") {
  return AddOp(flow, id, OpType::kJoin,
               {{"left", left_key}, {"right", right_key}, {"type", type}},
               {left, right});
}

/// src`table` with every column renamed to prefix + name (rid, rv, ...).
std::string AddRenamedScan(Flow* flow, const std::string& table,
                           const std::string& prefix) {
  return AddRenamed(flow, AddScan(flow, table), {"id", "v", "w", "s"},
                    prefix);
}

/// src0 ⋈ src1 ⋈ src2 on id, left-deep like the interpreter's flows (the
/// right sides renamed), then a derived measure, a projection onto a key
/// and the measure, an aggregation and a load.
Flow BuildJoinChainFlow() {
  Flow flow("join_chain");
  const std::string j1 = AddJoin(&flow, "join1", AddScan(&flow, "src0"),
                                 AddRenamedScan(&flow, "src1", "r"), "id",
                                 "rid");
  const std::string j2 = AddJoin(&flow, "join2", j1,
                                 AddRenamedScan(&flow, "src2", "x"), "id",
                                 "xid");
  const std::string fn = AddOp(&flow, "fn", OpType::kFunction,
                               {{"column", "m"}, {"expr", "v + rv * 2"}},
                               {j2});
  const std::string proj = AddOp(&flow, "proj", OpType::kProjection,
                                 {{"columns", "xs,m"}}, {fn});
  const std::string agg = AddOp(
      &flow, "agg", OpType::kAggregation,
      {{"group", "xs"}, {"aggs", "SUM(m) AS total; COUNT(*) AS n"}}, {proj});
  AddLoad(&flow, agg, "out");
  return flow;
}

TEST(EtlVectorizedTest, LivenessJoinChainMatchesReference) {
  ExpectJoinSweepMatchesReference(*BuildRandomSource(/*seed=*/29),
                                  BuildJoinChainFlow(),
                                  /*expect_skipped=*/true);
}

TEST(EtlVectorizedTest, LivenessRightColumnReadThreeOperatorsLater) {
  // rs is read only by the projection, three operators after the join.
  Flow flow("late_read");
  const std::string join = AddJoin(&flow, "join", AddScan(&flow, "src0"),
                                   AddRenamedScan(&flow, "src1", "r"), "id",
                                   "rid");
  const std::string sel = AddOp(&flow, "sel", OpType::kSelection,
                                {{"predicate", "v >= 5"}}, {join});
  const std::string fn = AddOp(&flow, "fn", OpType::kFunction,
                               {{"column", "f"}, {"expr", "v * 2 + 1"}},
                               {sel});
  AddLoad(&flow,
          AddOp(&flow, "proj", OpType::kProjection, {{"columns", "id,f,rs"}},
                {fn}),
          "out");
  ExpectJoinSweepMatchesReference(*BuildRandomSource(/*seed=*/31), flow,
                                  /*expect_skipped=*/true);
}

TEST(EtlVectorizedTest, LivenessTwoConsumersReadDisjointColumns) {
  Flow flow("disjoint_consumers");
  const std::string join = AddJoin(&flow, "join", AddScan(&flow, "src0"),
                                   AddRenamedScan(&flow, "src1", "r"), "id",
                                   "rid");
  AddLoad(&flow,
          AddOp(&flow, "agg", OpType::kAggregation,
                {{"group", "s"}, {"aggs", "SUM(v) AS total"}}, {join}),
          "out_agg");
  AddLoad(&flow,
          AddOp(&flow, "proj", OpType::kProjection, {{"columns", "rid,rw"}},
                {join}),
          "out_proj");
  ExpectJoinSweepMatchesReference(*BuildRandomSource(/*seed=*/33), flow,
                                  /*expect_skipped=*/true);
}

TEST(EtlVectorizedTest, LivenessUnionOfJoinsWithOtherConsumers) {
  // The union reads id and rv of both joins; join1's other consumer keeps
  // w and join2's keeps rs, so the union's input chunks leave different
  // slots empty.
  Flow flow("union_of_joins");
  const std::string right = AddRenamedScan(&flow, "src1", "r");
  const std::string j1 =
      AddJoin(&flow, "join1", AddScan(&flow, "src0"), right, "id", "rid");
  const std::string j2 =
      AddJoin(&flow, "join2", AddScan(&flow, "src2"), right, "id", "rid");
  const std::string uni = AddOp(&flow, "uni", OpType::kUnion, {}, {j1, j2});
  AddLoad(&flow,
          AddOp(&flow, "proj_u", OpType::kProjection, {{"columns", "id,rv"}},
                {uni}),
          "out_u");
  AddLoad(&flow,
          AddOp(&flow, "proj_1", OpType::kProjection, {{"columns", "w"}},
                {j1}),
          "out_1");
  AddLoad(&flow,
          AddOp(&flow, "proj_2", OpType::kProjection, {{"columns", "rs"}},
                {j2}),
          "out_2");
  ExpectJoinSweepMatchesReference(*BuildRandomSource(/*seed=*/35), flow,
                                  /*expect_skipped=*/true);
}

TEST(EtlVectorizedTest, LivenessLoaderAndSortKeepEveryJoinColumn) {
  // A Loader reads every column of its input, and so does a Sort, even
  // when only two columns survive the projection after it.
  Flow flow("all_live");
  const std::string right = AddRenamedScan(&flow, "src1", "r");
  AddLoad(&flow,
          AddJoin(&flow, "join1", AddScan(&flow, "src0"), right, "id", "rid"),
          "out_join");
  const std::string j2 =
      AddJoin(&flow, "join2", AddScan(&flow, "src2"), right, "id", "rid");
  const std::string sort = AddOp(&flow, "sort", OpType::kSort,
                                 {{"by", "rv"}, {"desc", "false"}}, {j2});
  AddLoad(&flow,
          AddOp(&flow, "proj", OpType::kProjection, {{"columns", "id,rv"}},
                {sort}),
          "out_sorted");
  ExpectJoinSweepMatchesReference(*BuildRandomSource(/*seed=*/37), flow,
                                  /*expect_skipped=*/false);
}

TEST(EtlVectorizedTest, LivenessSelfJoin) {
  // One node feeds both sides. Flow rejects a duplicate edge, so the right
  // side reaches `x` through a rename.
  Flow flow("self_join");
  const std::string x = AddOp(&flow, "x", OpType::kSelection,
                              {{"predicate", "v >= 5"}},
                              {AddScan(&flow, "src0")});
  const std::string renamed = AddRenamed(&flow, x, {"id", "v", "w", "s"}, "r");
  const std::string join = AddJoin(&flow, "join", x, renamed, "id", "rid");
  AddLoad(&flow,
          AddOp(&flow, "proj", OpType::kProjection, {{"columns", "id,rv"}},
                {join}),
          "out");
  ExpectJoinSweepMatchesReference(*BuildRandomSource(/*seed=*/39), flow,
                                  /*expect_skipped=*/true);
}

TEST(EtlVectorizedTest, LivenessNameOnBothSidesResolvesToTheFirst) {
  // Both sides carry id, v, w and s. Downstream lookups of id and v take
  // the left column, the first occurrence; liveness keeps a live name at
  // every position, so that lookup always finds a gathered segment.
  Flow flow("both_sides");
  const std::string right = AddOp(&flow, "fn_rid", OpType::kFunction,
                                  {{"column", "rid"}, {"expr", "id"}},
                                  {AddScan(&flow, "src1")});
  const std::string join =
      AddJoin(&flow, "join", AddScan(&flow, "src0"), right, "id", "rid");
  const std::string fn = AddOp(&flow, "fn", OpType::kFunction,
                               {{"column", "f"}, {"expr", "v + 1"}}, {join});
  AddLoad(&flow,
          AddOp(&flow, "proj", OpType::kProjection, {{"columns", "id,v,f"}},
                {fn}),
          "out");
  ExpectJoinSweepMatchesReference(*BuildRandomSource(/*seed=*/41), flow,
                                  /*expect_skipped=*/true);
}

TEST(EtlVectorizedTest, LivenessLeftJoinWithDeadPaddedColumns) {
  // No column of the filtered right side is read after the join, so the
  // NULL padding of the misses is never gathered either.
  Flow flow("left_join_dead_right");
  const std::string right = AddOp(&flow, "rsel", OpType::kSelection,
                                  {{"predicate", "rv >= 25"}},
                                  {AddRenamedScan(&flow, "src1", "r")});
  const std::string join = AddJoin(&flow, "join", AddScan(&flow, "src0"),
                                   right, "id", "rid", "left");
  AddLoad(&flow,
          AddOp(&flow, "proj", OpType::kProjection, {{"columns", "id,v,s"}},
                {join}),
          "out");
  ExpectJoinSweepMatchesReference(*BuildRandomSource(/*seed=*/43), flow,
                                  /*expect_skipped=*/true);
}

TEST(EtlVectorizedTest, LivenessRandomJoinThenSubsetFlows) {
  // BuildRandomFlow with every join followed by a projection onto a random
  // subset of its columns.
  int flows_with_join = 0;
  int pruned = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto source = BuildRandomSource(seed);
    Flow flow = BuildRandomFlow(seed, /*source_tables=*/3, /*ops=*/12,
                                /*subset_after_join=*/true);
    ASSERT_TRUE(flow.Validate().ok()) << "seed " << seed;
    bool has_join = false;
    for (const auto& [id, node] : flow.nodes()) {
      has_join = has_join || node.type == OpType::kJoin;
    }
    const int64_t skipped = JoinSegments("skipped");
    ExpectChunkSweepMatchesReference(*source, flow,
                                     "subset seed " + std::to_string(seed));
    flows_with_join += has_join ? 1 : 0;
    pruned += JoinSegments("skipped") > skipped ? 1 : 0;
  }
  // 13 of the 20 seeds draw a join, and each of those flows prunes.
  EXPECT_GE(flows_with_join, 10);
  EXPECT_EQ(pruned, flows_with_join);
}

TEST(EtlVectorizedTest, JoinChainByteBudgetBillsLogicalWidth) {
  // Joins that skip dead columns still bill every column of their output,
  // so the byte charge of this chain is the figure the executor reported
  // before joins skipped anything, and a budget decides as it did then:
  // exactly that many bytes pass, one byte fewer trips.
  constexpr int64_t kChainBytes = 328768;
  auto source = BuildRandomSource(/*seed=*/29);
  const Flow flow = BuildJoinChainFlow();
  for (int workers : {1, 4}) {
    ExecOptions options;
    options.max_workers = workers;
    ResourceBudget budget;
    budget.max_intermediate_bytes = kChainBytes;
    const int64_t skipped = JoinSegments("skipped");
    ExecContext ctx(CancellationToken{}, Deadline::Infinite(), budget);
    RunOutcome run =
        RunFlowOpts(*source, flow, options, RetryPolicy{}, nullptr, &ctx);
    ASSERT_TRUE(run.status.ok()) << run.status;
    EXPECT_EQ(ctx.intermediate_bytes(), kChainBytes) << "workers " << workers;
    EXPECT_GT(JoinSegments("skipped"), skipped);

    budget.max_intermediate_bytes = kChainBytes - 1;
    ExecContext tight(CancellationToken{}, Deadline::Infinite(), budget);
    RunOutcome tripped =
        RunFlowOpts(*source, flow, options, RetryPolicy{}, nullptr, &tight);
    EXPECT_TRUE(tripped.status.IsResourceExhausted()) << tripped.status;
  }
}

TEST(EtlVectorizedTest, VectorizedBudgetTripChargesAtChunkGranularity) {
  // The chunk kernels charge the budget per chunk, so a row allowance trips
  // mid-node instead of after a whole materialization; the checkpoint is
  // still a resumable node-boundary antichain.
  auto source = BuildRandomSource(/*seed=*/43);
  Flow flow = BuildWideFlow(6);
  RunOutcome serial = RunFlow(*source, flow, 1);
  ASSERT_TRUE(serial.status.ok()) << serial.status;

  ResourceBudget budget;
  budget.max_rows_materialized = 10;
  ExecContext ctx(CancellationToken{}, Deadline::Infinite(), budget);
  Checkpoint checkpoint;
  storage::Database target("dw");
  Executor executor(&(*source), &target);
  ExecOptions options;
  options.chunk_size = 4;  // several chunks per node at 10-row allowance
  auto report = executor.Run(flow, options, RetryPolicy{}, &checkpoint, &ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsResourceExhausted()) << report.status();
  ASSERT_TRUE(checkpoint.valid);

  ctx.ResetCharges();
  auto resumed = executor.Resume(flow, options, &checkpoint, RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

using EtlVectorizedFaultTest = EtlParallelFaultTest;

TEST_F(EtlVectorizedFaultTest, ChunkFaultSiteIsConsultedOncePerNodeAttempt) {
  // Every node of ds -> ex -> load sees the 10-row table as chunks of 4
  // (4 + 4 + 2): each attempt consults the mid-stream site once, at its
  // second chunk, however many chunks follow; a one-chunk node never does.
  storage::Database source("src");
  storage::TableSchema schema("t");
  ASSERT_TRUE(schema.AddColumn({"id", storage::DataType::kInt64, false}).ok());
  storage::Table* table = *source.CreateTable(std::move(schema));
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table->Insert({storage::Value::Int(i)}).ok());
  }
  Flow flow("gate");
  (void)flow.AddNode(MakeNode("ds", OpType::kDatastore, {{"table", "t"}}));
  (void)flow.AddNode(MakeNode("ex", OpType::kExtraction, {{"table", "t"}}));
  (void)flow.AddNode(MakeNode("load", OpType::kLoader, {{"table", "out"}}));
  (void)flow.AddEdge("ds", "ex");
  (void)flow.AddEdge("ex", "load");
  fault::Injector& injector = fault::Injector::Instance();
  injector.ClearConfigs();
  ExecOptions options;

  options.chunk_size = 4;
  injector.Enable(/*seed=*/3);
  ASSERT_TRUE(RunFlowOpts(source, flow, options).status.ok());
  EXPECT_EQ(injector.HitCount("etl.exec.vec.chunk"), 3);

  options.chunk_size = 10;
  injector.Enable(/*seed=*/3);
  ASSERT_TRUE(RunFlowOpts(source, flow, options).status.ok());
  EXPECT_EQ(injector.HitCount("etl.exec.vec.chunk"), 0);

  // A retried attempt consults the site afresh: the first hit fails ds,
  // its second attempt and the two later nodes add one hit each.
  options.chunk_size = 4;
  injector.Configure("etl.exec.vec.chunk",
                     {.trigger_on_hit = 1, .max_failures = 1});
  injector.Enable(/*seed=*/3);
  RetryPolicy retry;
  retry.max_attempts = 2;
  RunOutcome retried = RunFlowOpts(source, flow, options, retry);
  ASSERT_TRUE(retried.status.ok()) << retried.status;
  EXPECT_EQ(retried.report.retried_nodes, std::vector<std::string>{"ds"});
  EXPECT_EQ(injector.HitCount("etl.exec.vec.chunk"), 4);
}

TEST(EtlVectorizedTest, LifecycleErrorsNameTheNode) {
  // Deadline/cancellation surface with node-tagged messages: the chunk
  // gate uses the same context-check wording as the per-node pre-check.
  auto source = BuildRandomSource(/*seed=*/59);
  Flow flow = BuildWideFlow(4);
  ExecContext ctx(Deadline::After(0.0));
  RunOutcome outcome =
      RunFlowOpts(*source, flow, ExecOptions{}, RetryPolicy{}, nullptr, &ctx);
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsDeadlineExceeded()) << outcome.status;
  EXPECT_NE(outcome.status.ToString().find("node '"), std::string::npos)
      << outcome.status;
}

}  // namespace
}  // namespace quarry::etl
