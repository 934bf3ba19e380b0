// Experiment S3 (EXPERIMENTS.md): "Design deployment" scenario — engine
// substrate characterization: per-operator throughput of the embedded ETL
// engine (the Pentaho stand-in) plus deployment+load time as the source
// scale factor grows.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "common/timer.h"
#include "core/quarry.h"
#include "datagen/tpch.h"
#include "etl/exec/executor.h"
#include "ontology/tpch_ontology.h"

namespace {

using quarry::etl::Executor;
using quarry::etl::Flow;
using quarry::etl::Node;
using quarry::etl::OpType;

quarry::storage::Database& SharedSource() {
  static quarry::storage::Database* db = [] {
    auto* d = new quarry::storage::Database("tpch");
    if (!quarry::datagen::PopulateTpch(d, {0.01, 3}).ok()) std::abort();
    return d;
  }();
  return *db;
}

Node MakeNode(const std::string& id, OpType type,
              std::map<std::string, std::string> params) {
  Node node;
  node.id = id;
  node.type = type;
  node.params = std::move(params);
  return node;
}

Flow LineitemPipeline(std::vector<Node> middle) {
  Flow flow("bench");
  (void)flow.AddNode(MakeNode("ds", OpType::kDatastore,
                              {{"table", "lineitem"}}));
  (void)flow.AddNode(MakeNode("ex", OpType::kExtraction,
                              {{"table", "lineitem"}}));
  (void)flow.AddEdge("ds", "ex");
  std::string prev = "ex";
  for (Node& node : middle) {
    std::string id = node.id;
    (void)flow.AddNode(std::move(node));
    (void)flow.AddEdge(prev, id);
    prev = id;
  }
  (void)flow.AddNode(MakeNode("ld", OpType::kLoader, {{"table", "out"}}));
  (void)flow.AddEdge(prev, "ld");
  return flow;
}

int64_t RunAndCount(const Flow& flow) {
  quarry::storage::Database target;
  auto report = Executor(&SharedSource(), &target).Run(flow);
  if (!report.ok()) std::abort();
  return report->rows_processed;
}

void BenchFlow(benchmark::State& state, const Flow& flow) {
  int64_t rows = 0;
  for (auto _ : state) {
    rows = RunAndCount(flow);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_OpSelection(benchmark::State& state) {
  BenchFlow(state, LineitemPipeline({MakeNode(
                       "sel", OpType::kSelection,
                       {{"predicate", "l_quantity > 25"}})}));
}
BENCHMARK(BM_OpSelection)->Unit(benchmark::kMillisecond);

void BM_OpProjection(benchmark::State& state) {
  BenchFlow(state,
            LineitemPipeline({MakeNode(
                "pr", OpType::kProjection,
                {{"columns", "l_orderkey,l_partkey,l_extendedprice"}})}));
}
BENCHMARK(BM_OpProjection)->Unit(benchmark::kMillisecond);

void BM_OpFunction(benchmark::State& state) {
  BenchFlow(state, LineitemPipeline({MakeNode(
                       "fn", OpType::kFunction,
                       {{"column", "revenue"},
                        {"expr",
                         "l_extendedprice * (1 - l_discount)"}})}));
}
BENCHMARK(BM_OpFunction)->Unit(benchmark::kMillisecond);

void BM_OpAggregation(benchmark::State& state) {
  BenchFlow(state, LineitemPipeline({MakeNode(
                       "ag", OpType::kAggregation,
                       {{"group", "l_partkey"},
                        {"aggs",
                         "SUM(l_quantity) AS q;AVG(l_discount) AS d"}})}));
}
BENCHMARK(BM_OpAggregation)->Unit(benchmark::kMillisecond);

void BM_OpSort(benchmark::State& state) {
  BenchFlow(state, LineitemPipeline({MakeNode(
                       "so", OpType::kSort,
                       {{"by", "l_extendedprice"}, {"desc", "true"}})}));
}
BENCHMARK(BM_OpSort)->Unit(benchmark::kMillisecond);

void BM_OpJoin(benchmark::State& state) {
  Flow flow("join");
  (void)flow.AddNode(MakeNode("l", OpType::kDatastore,
                              {{"table", "lineitem"}}));
  (void)flow.AddNode(MakeNode("p", OpType::kDatastore, {{"table", "part"}}));
  (void)flow.AddNode(MakeNode("j", OpType::kJoin,
                              {{"left", "l_partkey"},
                               {"right", "p_partkey"}}));
  (void)flow.AddNode(MakeNode("ld", OpType::kLoader, {{"table", "out"}}));
  (void)flow.AddEdge("l", "j");
  (void)flow.AddEdge("p", "j");
  (void)flow.AddEdge("j", "ld");
  BenchFlow(state, flow);
}
BENCHMARK(BM_OpJoin)->Unit(benchmark::kMillisecond);

void PrintSeries() {
  std::printf("S3: deployment + initial load time vs scale factor\n");
  std::printf("%8s %10s %10s | %10s %12s %10s\n", "sf", "src_rows",
              "gen_ms", "deploy_ms", "etl_rows", "etl_ms");
  for (double sf : {0.002, 0.005, 0.01, 0.02}) {
    quarry::Timer t_gen;
    quarry::storage::Database source("tpch");
    if (!quarry::datagen::PopulateTpch(&source, {sf, 3}).ok()) std::abort();
    double gen_ms = t_gen.ElapsedMillis();
    auto quarry = quarry::core::Quarry::Create(
        quarry::ontology::BuildTpchOntology(),
        quarry::ontology::BuildTpchMappings(), &source);
    if (!quarry.ok()) std::abort();
    quarry::req::InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         quarry::md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_name"});
    ir.dimensions.push_back({"Supplier.s_name"});
    if (!(*quarry)->AddRequirement(ir).ok()) std::abort();
    quarry::Timer t_deploy;
    auto deployment = (*quarry)->DeployServing();
    if (!deployment.ok() || !deployment->success) std::abort();
    const quarry::etl::ExecutionReport& etl = deployment->report.etl;
    std::printf("%8.3f %10zu %10.1f | %10.1f %12lld %10.1f\n", sf,
                source.TotalRows(), gen_ms, t_deploy.ElapsedMillis(),
                static_cast<long long>(etl.rows_processed), etl.total_millis);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
