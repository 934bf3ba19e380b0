// Post-deployment usage (paper §2.4: deployed designs are "available for
// further user-preferred tunings and use"): latency of roll-up cube
// queries over the deployed star schema, by grouping arity and filter.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "olap/cube_query.h"
#include "ontology/tpch_ontology.h"

namespace {

struct Env {
  quarry::storage::Database source{"tpch"};
  std::unique_ptr<quarry::core::Quarry> quarry;
  quarry::storage::GenerationStore::Pin warehouse;
  std::unique_ptr<quarry::olap::CubeQueryEngine> engine;

  Env() {
    if (!quarry::datagen::PopulateTpch(&source, {0.01, 19}).ok()) {
      std::abort();
    }
    auto q = quarry::core::Quarry::Create(
        quarry::ontology::BuildTpchOntology(),
        quarry::ontology::BuildTpchMappings(), &source);
    if (!q.ok()) std::abort();
    quarry = std::move(*q);
    if (!quarry
             ->AddRequirementFromQuery(
                 "ANALYZE revenue ON Lineitem MEASURE revenue = "
                 "Lineitem.l_extendedprice * (1 - Lineitem.l_discount) SUM "
                 "BY Part.p_type, Supplier.s_name, Orders.o_orderdate")
             .ok()) {
      std::abort();
    }
    auto deployment = quarry->DeployServing();
    if (!deployment.ok() || !deployment->success) std::abort();
    auto pin = quarry->warehouse().Acquire();
    if (!pin.ok()) std::abort();
    warehouse = std::move(*pin);
    engine = std::make_unique<quarry::olap::CubeQueryEngine>(
        &quarry->schema(), &quarry->mapping(), &warehouse.db());
  }
};

Env& SharedEnv() {
  static Env* env = new Env();
  return *env;
}

void RunQuery(benchmark::State& state, const quarry::olap::CubeQuery& query) {
  Env& env = SharedEnv();
  size_t rows = 0;
  for (auto _ : state) {
    auto result = env.engine->Execute(query);
    if (!result.ok()) std::abort();
    rows = result->rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}

void BM_RollUpOneDim(benchmark::State& state) {
  quarry::olap::CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", quarry::md::AggFunc::kSum, ""}};
  RunQuery(state, query);
}
BENCHMARK(BM_RollUpOneDim)->Unit(benchmark::kMillisecond);

void BM_RollUpTwoDims(benchmark::State& state) {
  quarry::olap::CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type", "s_name"};
  query.measures = {{"revenue", quarry::md::AggFunc::kSum, ""}};
  RunQuery(state, query);
}
BENCHMARK(BM_RollUpTwoDims)->Unit(benchmark::kMillisecond);

void BM_SlicedRollUp(benchmark::State& state) {
  quarry::olap::CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"s_name"};
  query.measures = {{"revenue", quarry::md::AggFunc::kSum, ""}};
  query.filters = {"p_type = 'SMALL'"};
  RunQuery(state, query);
}
BENCHMARK(BM_SlicedRollUp)->Unit(benchmark::kMillisecond);

void BM_FactLocalGroupBy(benchmark::State& state) {
  quarry::olap::CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"o_orderdate"};  // grain column: no dimension join
  query.measures = {{"revenue", quarry::md::AggFunc::kSum, ""},
                    {"revenue", quarry::md::AggFunc::kCount, "n"}};
  RunQuery(state, query);
}
BENCHMARK(BM_FactLocalGroupBy)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("OLAP: cube-query latency on the deployed warehouse "
              "(fact at (part,supplier,orderdate) grain, sf=0.01)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
