// Wavefront-scheduler experiments (docs/ROBUSTNESS.md §8,
// BENCH_parallel.json). Every run goes through the scheduler; the 1-worker
// arm runs the nodes on the calling thread in topological order, and the
// N-worker arms on a pool of N threads:
//  - wide multi-branch flow (6 independent extract→transform→load chains)
//    executed with 1, 2, 4 and 8 workers — the headline wavefront
//    speedup. On a multi-core host the 4-worker run is expected >= 2x; on
//    a single-vCPU container CPU-bound branches cannot overlap and the
//    interesting number is how little the thread pool loses;
//  - deep chain flow (60 dependent nodes): zero exploitable parallelism by
//    construction, so (4 workers - 1 worker) / nodes is the per-node cost
//    of the thread pool (thread start, condvar hand-offs between threads);
//  - latency-bound wide flow: each branch's transform draws one injected
//    transient fault and sleeps through a deterministic 25 ms retry
//    backoff. Workers overlap the sleeps even on one vCPU — the wavefront
//    win that survives any core count.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/prng.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"
#include "storage/database.h"

namespace {

using quarry::Prng;
using quarry::etl::Checkpoint;
using quarry::etl::ExecOptions;
using quarry::etl::Executor;
using quarry::etl::Flow;
using quarry::etl::Node;
using quarry::etl::OpType;
using quarry::etl::RetryPolicy;

Node MakeNode(const std::string& id, OpType type,
              std::map<std::string, std::string> params) {
  Node node;
  node.id = id;
  node.type = type;
  node.params = std::move(params);
  return node;
}

/// Source tables src0..src5 with (id, v, w) and `rows` rows each.
quarry::storage::Database* BuildSource(int tables, int64_t rows) {
  using quarry::storage::DataType;
  using quarry::storage::Value;
  auto* db = new quarry::storage::Database("src");
  Prng prng(117);
  for (int t = 0; t < tables; ++t) {
    quarry::storage::TableSchema schema("src" + std::to_string(t));
    (void)schema.AddColumn({"id", DataType::kInt64, false});
    (void)schema.AddColumn({"v", DataType::kInt64, true});
    (void)schema.AddColumn({"w", DataType::kDouble, true});
    quarry::storage::Table* table = *db->CreateTable(std::move(schema));
    for (int64_t r = 0; r < rows; ++r) {
      (void)table->Insert({Value::Int(r), Value::Int(prng.Uniform(0, 1000)),
                           Value::Double(prng.UniformDouble() * 100.0)});
    }
  }
  return db;
}

quarry::storage::Database& WideSource() {
  static quarry::storage::Database* db = BuildSource(6, 20000);
  return *db;
}

/// Smaller source for the latency-bound scenario: keeps per-branch compute
/// well below the injected 50 ms retry backoff, so the measurement isolates
/// how well workers overlap the waits.
quarry::storage::Database& LatencySource() {
  static quarry::storage::Database* db = BuildSource(6, 5000);
  return *db;
}

/// Six independent branches, one per operator type, so each branch owns a
/// distinct `etl.exec.<OpType>` fault site: extract → transform → load.
Flow BuildWideFlow() {
  Flow flow("wide6");
  auto branch = [&flow](int i, const std::string& table) {
    std::string n = std::to_string(i);
    (void)flow.AddNode(
        MakeNode("ds" + n, OpType::kDatastore, {{"table", table}}));
    (void)flow.AddNode(
        MakeNode("ex" + n, OpType::kExtraction, {{"table", table}}));
    (void)flow.AddEdge("ds" + n, "ex" + n);
    return "ex" + n;
  };
  auto finish = [&flow](int i, const std::string& tail) {
    std::string n = std::to_string(i);
    (void)flow.AddNode(
        MakeNode("load" + n, OpType::kLoader, {{"table", "out" + n}}));
    (void)flow.AddEdge(tail, "load" + n);
  };

  (void)flow.AddNode(MakeNode("sel", OpType::kSelection,
                              {{"predicate", "v >= 500"}}));
  (void)flow.AddEdge(branch(0, "src0"), "sel");
  finish(0, "sel");

  (void)flow.AddNode(
      MakeNode("proj", OpType::kProjection, {{"columns", "id,v"}}));
  (void)flow.AddEdge(branch(1, "src1"), "proj");
  finish(1, "proj");

  (void)flow.AddNode(MakeNode("fn", OpType::kFunction,
                              {{"column", "f0"}, {"expr", "v * 3 + 1"}}));
  (void)flow.AddEdge(branch(2, "src2"), "fn");
  finish(2, "fn");

  (void)flow.AddNode(
      MakeNode("sort", OpType::kSort, {{"by", "v"}, {"desc", "true"}}));
  (void)flow.AddEdge(branch(3, "src3"), "sort");
  finish(3, "sort");

  (void)flow.AddNode(MakeNode(
      "agg", OpType::kAggregation,
      {{"group", "v"}, {"aggs", "SUM(id) AS total"}}));
  (void)flow.AddEdge(branch(4, "src4"), "agg");
  finish(4, "agg");

  (void)flow.AddNode(MakeNode("join", OpType::kJoin,
                              {{"left", "id"},
                               {"right", "id"},
                               {"type", "inner"}}));
  (void)flow.AddEdge(branch(5, "src5"), "join");
  (void)flow.AddEdge(branch(6, "src0"), "join");
  (void)flow.AddNode(
      MakeNode("jproj", OpType::kProjection, {{"columns", "id,v,w"}}));
  (void)flow.AddEdge("join", "jproj");
  finish(5, "jproj");
  return flow;
}

/// 60 dependent selections: the longest path IS the flow, so any time a
/// multi-worker run loses versus one worker is pure thread-pool overhead.
Flow BuildChainFlow(int length) {
  Flow flow("chain");
  (void)flow.AddNode(
      MakeNode("ds", OpType::kDatastore, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("ex", OpType::kExtraction, {{"table", "src0"}}));
  (void)flow.AddEdge("ds", "ex");
  std::string prev = "ex";
  for (int i = 0; i < length; ++i) {
    std::string id = "sel" + std::to_string(i);
    (void)flow.AddNode(
        MakeNode(id, OpType::kSelection, {{"predicate", "v >= 0"}}));
    (void)flow.AddEdge(prev, id);
    prev = id;
  }
  (void)flow.AddNode(
      MakeNode("load", OpType::kLoader, {{"table", "out"}}));
  (void)flow.AddEdge(prev, "load");
  return flow;
}

void RunOrDie(quarry::storage::Database& source, const Flow& flow,
              int workers, const RetryPolicy& retry = {}) {
  quarry::storage::Database target("dw");
  Executor executor(&source, &target);
  ExecOptions options;
  options.max_workers = workers;
  auto report = executor.Run(flow, options, retry, nullptr);
  if (!report.ok()) std::abort();
}

void BM_WideFlow(benchmark::State& state) {
  quarry::storage::Database& source = WideSource();
  Flow flow = BuildWideFlow();
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) RunOrDie(source, flow, workers);
  state.counters["workers"] = workers;
}
BENCHMARK(BM_WideFlow)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_DeepChain(benchmark::State& state) {
  quarry::storage::Database& source = WideSource();
  Flow flow = BuildChainFlow(60);
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) RunOrDie(source, flow, workers);
  state.counters["workers"] = workers;
  state.counters["nodes"] = static_cast<double>(flow.num_nodes());
}
BENCHMARK(BM_DeepChain)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Every branch's transform fails exactly once (fail_from_hit = 1,
/// max_failures = 1 per distinct op-type site) and retries after a
/// deterministic 50 ms jitter-free backoff: the flow is sleep-dominated,
/// and workers overlap the sleeps.
void BM_WideFlowRetryLatency(benchmark::State& state) {
  quarry::storage::Database& source = LatencySource();
  Flow flow = BuildWideFlow();
  const int workers = static_cast<int>(state.range(0));
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_backoff_millis = 50.0;
  retry.jitter_fraction = 0.0;
  auto& injector = quarry::fault::Injector::Instance();
  injector.ClearConfigs();
  for (const char* site :
       {"etl.exec.Selection", "etl.exec.Projection", "etl.exec.Function",
        "etl.exec.Sort", "etl.exec.Aggregation", "etl.exec.Join"}) {
    injector.Configure(site, {.fail_from_hit = 1, .max_failures = 1});
  }
  for (auto _ : state) {
    state.PauseTiming();
    injector.Enable(/*seed=*/5);  // resets hit/failure counters
    state.ResumeTiming();
    RunOrDie(source, flow, workers, retry);
  }
  injector.Disable();
  injector.ClearConfigs();
  state.counters["workers"] = workers;
}
BENCHMARK(BM_WideFlowRetryLatency)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
