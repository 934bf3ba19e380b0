// Experiment F3 (EXPERIMENTS.md): the integration & deployment example of
// paper Figure 3 — the revenue and netprofit requirements are integrated
// into unified xMD/xLM, then rendered as PostgreSQL DDL and a Pentaho-style
// ktr; we report artifact sizes and generation latencies.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "deployer/pdi_generator.h"
#include "deployer/sql_generator.h"
#include "etl/xlm.h"
#include "ontology/tpch_ontology.h"

namespace {

using quarry::core::Quarry;
using quarry::req::InformationRequirement;

InformationRequirement RevenueIr() {
  InformationRequirement ir;
  ir.id = "ir_revenue";
  ir.name = "revenue";
  ir.focus_concept = "Lineitem";
  ir.measures.push_back(
      {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
       quarry::md::AggFunc::kSum});
  ir.dimensions.push_back({"Part.p_name"});
  ir.dimensions.push_back({"Orders.o_orderdate"});
  return ir;
}

InformationRequirement NetprofitIr() {
  InformationRequirement ir;
  ir.id = "ir_netprofit";
  ir.name = "netprofit";
  ir.focus_concept = "Lineitem";
  ir.measures.push_back(
      {"netprofit",
       "Lineitem.l_extendedprice * (1 - Lineitem.l_discount) - "
       "Partsupp.ps_supplycost * Lineitem.l_quantity",
       quarry::md::AggFunc::kSum});
  // Coarser grain than the revenue requirement (Part only), so the paper's
  // Figure 3 shape — two fact tables sharing conformed dimensions — holds.
  ir.dimensions.push_back({"Part.p_name"});
  return ir;
}

struct Env {
  quarry::storage::Database source{"tpch"};
  std::unique_ptr<Quarry> quarry;

  Env() {
    if (!quarry::datagen::PopulateTpch(&source, {0.005, 55}).ok()) {
      std::abort();
    }
    auto q = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                            quarry::ontology::BuildTpchMappings(), &source);
    if (!q.ok()) std::abort();
    quarry = std::move(*q);
    if (!quarry->AddRequirement(RevenueIr()).ok()) std::abort();
    if (!quarry->AddRequirement(NetprofitIr()).ok()) std::abort();
  }
};

Env& SharedEnv() {
  static Env* env = new Env();
  return *env;
}

void PrintSeries() {
  Env& env = SharedEnv();
  std::printf(
      "F3: Figure-3 artifacts (revenue + netprofit integrated design)\n");
  auto unified_xmd = env.quarry->schema().ToXml();
  auto unified_xlm = quarry::etl::FlowToXlm(env.quarry->flow());
  auto sql = env.quarry->ExportSchema("sql");
  auto ktr = env.quarry->ExportFlow("pdi");
  if (!sql.ok() || !ktr.ok()) std::abort();
  std::printf("  %-28s %8s\n", "artifact", "size");
  std::printf("  %-28s %7zu elements\n", "unified xMD",
              unified_xmd->SubtreeSize());
  std::printf("  %-28s %7zu elements\n", "unified xLM",
              unified_xlm->SubtreeSize());
  std::printf("  %-28s %7zu bytes\n", "PostgreSQL DDL", sql->size());
  std::printf("  %-28s %7zu bytes\n", "Pentaho PDI ktr", ktr->size());
  std::printf("  facts=%zu dimensions=%zu flow_nodes=%zu flow_edges=%zu\n\n",
              env.quarry->schema().facts().size(),
              env.quarry->schema().dimensions().size(),
              env.quarry->flow().num_nodes(), env.quarry->flow().num_edges());
}

void BM_GenerateSql(benchmark::State& state) {
  Env& env = SharedEnv();
  for (auto _ : state) {
    auto sql = quarry::deployer::GenerateSql(env.quarry->schema(),
                                             env.quarry->mapping(),
                                             env.source);
    if (!sql.ok()) std::abort();
    benchmark::DoNotOptimize(sql->size());
  }
}
BENCHMARK(BM_GenerateSql);

void BM_GeneratePdi(benchmark::State& state) {
  Env& env = SharedEnv();
  for (auto _ : state) {
    std::string ktr = quarry::deployer::GeneratePdiText(env.quarry->flow());
    benchmark::DoNotOptimize(ktr.size());
  }
}
BENCHMARK(BM_GeneratePdi);

void BM_FullDeployment(benchmark::State& state) {
  Env& env = SharedEnv();
  for (auto _ : state) {
    auto deployment = env.quarry->DeployServing();
    if (!deployment.ok() || !deployment->success) std::abort();
    const quarry::etl::ExecutionReport& etl = deployment->report.etl;
    benchmark::DoNotOptimize(etl.rows_processed);
    state.counters["etl_rows"] = static_cast<double>(etl.rows_processed);
  }
}
BENCHMARK(BM_FullDeployment)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
