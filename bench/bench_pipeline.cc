// Experiments F1 + S1 (EXPERIMENTS.md): the end-to-end pipeline of paper
// Figure 1 and the "DW design" demo scenario — per-requirement stage
// timings (interpret, integrate, verify) for the incremental design of a
// warehouse from a stream of requirements, ending in deployment.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/timer.h"
#include "core/quarry.h"
#include "datagen/tpch.h"
#include "mdschema/complexity.h"
#include "ontology/tpch_ontology.h"
#include "requirements/workload.h"

namespace {

using quarry::core::Quarry;

quarry::storage::Database& SharedSource() {
  static quarry::storage::Database* db = [] {
    auto* d = new quarry::storage::Database("tpch");
    if (!quarry::datagen::PopulateTpch(d, {0.01, 77}).ok()) std::abort();
    return d;
  }();
  return *db;
}

void PrintSeries() {
  std::printf(
      "F1/S1: end-to-end incremental DW design (TPC-H sf=0.01, 6 IRs)\n");
  auto quarry = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                               quarry::ontology::BuildTpchMappings(),
                               &SharedSource());
  if (!quarry.ok()) std::abort();
  quarry::req::WorkloadConfig config;
  config.num_requirements = 6;
  config.overlap = 0.6;
  config.seed = 21;
  std::printf("%-10s | %10s | %6s %6s | %10s %8s | %9s\n", "step",
              "add_ms", "facts", "dims", "complexity", "nodes",
              "reused");
  for (const auto& ir : quarry::req::GenerateTpchWorkload(config)) {
    quarry::Timer t;
    auto outcome = (*quarry)->AddRequirement(ir);
    double ms = t.ElapsedMillis();
    if (!outcome.ok()) std::abort();
    std::printf("%-10s | %10.2f | %6zu %6zu | %10.1f %8zu | %9d\n",
                ir.id.c_str(), ms, (*quarry)->schema().facts().size(),
                (*quarry)->schema().dimensions().size(),
                quarry::md::StructuralComplexity((*quarry)->schema()).score,
                (*quarry)->flow().num_nodes(), outcome->etl.nodes_reused);
  }
  quarry::Timer t_deploy;
  auto deployment = (*quarry)->DeployServing();
  if (!deployment.ok() || !deployment->success) std::abort();
  const quarry::deployer::DeploymentReport& report = deployment->report;
  std::printf(
      "deploy     | %10.2f | tables=%d etl_rows=%lld integrity=%s\n",
      t_deploy.ElapsedMillis(), report.tables_created,
      static_cast<long long>(report.etl.rows_processed),
      report.referential_integrity_ok ? "OK" : "BROKEN");
  std::printf("\n");
}

void BM_AddRequirementIncremental(benchmark::State& state) {
  quarry::req::WorkloadConfig config;
  config.num_requirements = static_cast<int>(state.range(0));
  config.overlap = 0.6;
  config.seed = 21;
  auto workload = quarry::req::GenerateTpchWorkload(config);
  for (auto _ : state) {
    auto quarry = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                                 quarry::ontology::BuildTpchMappings(),
                                 &SharedSource());
    if (!quarry.ok()) std::abort();
    for (const auto& ir : workload) {
      auto outcome = (*quarry)->AddRequirement(ir);
      if (!outcome.ok()) std::abort();
    }
    benchmark::DoNotOptimize((*quarry)->flow().num_nodes());
  }
  state.counters["requirements"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AddRequirementIncremental)->Arg(2)->Arg(4)->Arg(8);

void BM_RemoveRequirement(benchmark::State& state) {
  quarry::req::WorkloadConfig config;
  config.num_requirements = 6;
  config.overlap = 0.6;
  config.seed = 21;
  auto workload = quarry::req::GenerateTpchWorkload(config);
  for (auto _ : state) {
    state.PauseTiming();
    auto quarry = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                                 quarry::ontology::BuildTpchMappings(),
                                 &SharedSource());
    if (!quarry.ok()) std::abort();
    for (const auto& ir : workload) {
      if (!(*quarry)->AddRequirement(ir).ok()) std::abort();
    }
    state.ResumeTiming();
    if (!(*quarry)->RemoveRequirement(workload[2].id).ok()) std::abort();
    benchmark::DoNotOptimize((*quarry)->requirements().size());
  }
}
BENCHMARK(BM_RemoveRequirement);

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
