// Differential tests for the executor. EtlParallelTest (docs/ROBUSTNESS.md
// §8): every flow must produce byte-identical target tables and equivalent
// execution reports no matter how many workers run it, and the lifecycle /
// fault-injection contracts of the serial executor must carry over.
// EtlVectorizedTest (DESIGN.md §8): the chunk runtime must match the
// row-at-a-time reference executor at every chunk size. Runs under TSan via
// tools/run_tsan.sh (ctest label `tsan`).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_context.h"
#include "common/fault_injection.h"
#include "../bench/etl_bench_flows.h"
#include "datagen/tpch.h"
#include "etl_test_util.h"
#include "interpreter/interpreter.h"
#include "obs/metrics.h"
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
  // bench_etl_vectorized's two timed flows, on real TPC-H data.
  storage::Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.005, 23}).ok());
  for (const Flow& flow : {benchflows::BuildScanAggFlow(),
                           benchflows::BuildFilterProjectLoadFlow()}) {
    ASSERT_TRUE(flow.Validate().ok()) << flow.name();
    ExpectChunkSweepMatchesReference(src, flow, flow.name());
  }
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
