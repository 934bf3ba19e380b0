// Snapshot-isolated serving experiments (docs/ROBUSTNESS.md §9,
// BENCH_serving.json):
//  - query latency on a pinned generation, quiesced vs under refresh churn
//    (a background thread growing the source and publishing generations as
//    fast as it can) — serve-while-refresh means the p50/p99 gap should be
//    small, and no query ever blocks on a publish;
//  - rollback cost after an injected publish fault: the serving path
//    resumes from the old generation with a pin acquire (O(1), independent
//    of warehouse size), where an in-place deploy's unit of recovery
//    would be a deep clone of the warehouse (O(rows)).
// Every benchmark records the host context (core count, load average) via
// bench_util.h so BENCH_serving.json can say what box the numbers are from.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/fault_injection.h"
#include "core/quarry.h"
#include "datagen/tpch.h"
#include "ontology/tpch_ontology.h"
#include "storage/generation_store.h"

namespace {

using quarry::core::Quarry;
using quarry::core::QueryOptions;
using quarry::storage::Value;
using quarry::bench::PercentileNs;
using quarry::bench::RecordHostInfo;

/// One serving deployment: TPC-H source, a revenue requirement, and a
/// published generation 1. Built fresh per benchmark (churn mutates the
/// source, so sharing one instance would couple the experiments).
struct Scenario {
  explicit Scenario(double scale_factor) : src("tpch") {
    if (!quarry::datagen::PopulateTpch(&src, {scale_factor, 77}).ok()) {
      std::abort();
    }
    auto q = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                            quarry::ontology::BuildTpchMappings(), &src);
    if (!q.ok()) std::abort();
    quarry = std::move(*q);
    quarry::req::InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         quarry::md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_type"});
    ir.dimensions.push_back({"Supplier.s_name"});
    if (!quarry->AddRequirement(ir).ok()) std::abort();
    if (!quarry->DeployServing().ok()) std::abort();
  }

  /// New part + a lineitem selling it, PK-salted so churn rounds never
  /// collide (mirrors the soak harness's source growth).
  void GrowSource(int salt) {
    quarry::storage::Table* part = *src.GetTable("part");
    auto new_partkey = static_cast<int64_t>(part->num_rows()) + 1;
    if (!part->Insert({Value::Int(new_partkey),
                       Value::String("part " + std::to_string(salt)),
                       Value::String("Brand#99"), Value::String("SMALL"),
                       Value::Double(1234.5)})
             .ok()) {
      std::abort();
    }
    quarry::storage::Table* lineitem = *src.GetTable("lineitem");
    if (!lineitem
             ->Insert({Value::Int(1), Value::Int(500000 + salt),
                       Value::Int(new_partkey), Value::Int(1), Value::Int(3),
                       Value::Double(100.0), Value::Double(0.0),
                       Value::Double(0.0), Value::DateYmd(1995, 6, 1),
                       Value::String("N")})
             .ok()) {
      std::abort();
    }
  }

  static quarry::olap::CubeQuery RevenueByType() {
    quarry::olap::CubeQuery query;
    query.fact = "fact_table_revenue";
    query.group_by = {"p_type"};
    query.measures = {{"revenue", quarry::md::AggFunc::kSum, "total"}};
    return query;
  }

  quarry::storage::Database src;
  std::unique_ptr<Quarry> quarry;
};

constexpr double kScaleFactor = 0.01;

/// Reports per-query latency percentiles computed from raw samples —
/// google-benchmark's mean hides exactly the tail the serving path is
/// designed to protect.
void ReportLatency(benchmark::State& state, std::vector<int64_t> samples_ns) {
  state.counters["queries"] = static_cast<double>(samples_ns.size());
  state.counters["p50_us"] =
      static_cast<double>(PercentileNs(samples_ns, 0.50)) / 1e3;
  state.counters["p99_us"] =
      static_cast<double>(PercentileNs(std::move(samples_ns), 0.99)) / 1e3;
  RecordHostInfo(state);
}

// Baseline: query latency against a stable generation, nothing else
// running. Every query pins generation 1.
void BM_QueryQuiesced(benchmark::State& state) {
  Scenario s(kScaleFactor);
  std::vector<int64_t> samples_ns;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto result = s.quarry->SubmitQuery(Scenario::RevenueByType());
    if (!result.ok()) std::abort();
    samples_ns.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    benchmark::DoNotOptimize(result->data.rows.size());
  }
  ReportLatency(state, std::move(samples_ns));
}
BENCHMARK(BM_QueryQuiesced)->Unit(benchmark::kMicrosecond);

// The serve-while-refresh experiment: a churn thread grows the source and
// publishes generation after generation while this thread queries with
// allow_stale set. Snapshot isolation predicts the latency distribution
// stays close to the quiesced baseline — queries pin a generation and never
// wait for a publish.
void BM_QueryDuringRefresh(benchmark::State& state) {
  Scenario s(kScaleFactor);
  std::atomic<bool> stop{false};
  std::atomic<int> refreshes{0};
  std::thread churn([&] {
    int salt = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      s.GrowSource(++salt);
      if (!s.quarry->RefreshServing().ok()) std::abort();
      refreshes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  QueryOptions opts;
  opts.allow_stale = true;
  std::vector<int64_t> samples_ns;
  int64_t stale_served = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto result = s.quarry->SubmitQuery(Scenario::RevenueByType(), opts);
    if (!result.ok()) std::abort();
    samples_ns.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    if (result->stale) ++stale_served;
    benchmark::DoNotOptimize(result->data.rows.size());
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  state.counters["refreshes"] = static_cast<double>(refreshes.load());
  state.counters["stale_served"] = static_cast<double>(stale_served);
  ReportLatency(state, std::move(samples_ns));
}
BENCHMARK(BM_QueryDuringRefresh)->Unit(benchmark::kMicrosecond);

// Recovery cost after an injected publish fault, serving path: the store
// is untouched by the failure, so "rollback" is re-acquiring a pin on the
// old generation — a refcount bump under the store mutex, independent of
// warehouse size. Arg is TPC-H scale factor x 1000.
void BM_RollbackServing(benchmark::State& state) {
  Scenario s(static_cast<double>(state.range(0)) / 1000.0);
  auto& warehouse = s.quarry->warehouse();
  const uint64_t generation = warehouse.current_generation();
  quarry::fault::Injector& injector = quarry::fault::Injector::Instance();
  injector.Configure("storage.generation.publish", {1.0, 0, 0, -1});
  injector.Enable(7);
  for (auto _ : state) {
    state.PauseTiming();
    auto scratch = warehouse.BeginEmptyBuild();
    if (warehouse.Publish(std::move(scratch)).ok()) std::abort();
    state.ResumeTiming();
    // Post-fault recovery: resume serving from the untouched store.
    auto pin = warehouse.Acquire();
    if (!pin.ok() || pin->generation() != generation) std::abort();
    benchmark::DoNotOptimize(pin->db().num_tables());
  }
  injector.ClearConfigs();
  injector.Disable();
  auto pin = warehouse.Acquire();
  if (!pin.ok()) std::abort();
  int64_t rows = 0;
  for (const auto& name : pin->db().TableNames()) {
    rows += static_cast<int64_t>((*pin->db().GetTable(name))->num_rows());
  }
  state.counters["warehouse_rows"] = static_cast<double>(rows);
  RecordHostInfo(state);
}
BENCHMARK(BM_RollbackServing)
    ->Arg(2)
    ->Arg(10)
    ->Iterations(30)
    ->Unit(benchmark::kMicrosecond);

// The contrast: an in-place deploy's unit of recovery would be restoring
// the warehouse from a pre-deploy backup — a deep clone, O(rows). Same
// scales as BM_RollbackServing so the JSON can put the two side by side.
void BM_RollbackLegacyClone(benchmark::State& state) {
  Scenario s(static_cast<double>(state.range(0)) / 1000.0);
  auto pin = s.quarry->warehouse().Acquire();
  if (!pin.ok()) std::abort();
  int64_t rows = 0;
  for (const auto& name : pin->db().TableNames()) {
    rows += static_cast<int64_t>((*pin->db().GetTable(name))->num_rows());
  }
  for (auto _ : state) {
    std::unique_ptr<quarry::storage::Database> restored = pin->db().Clone();
    benchmark::DoNotOptimize(restored->num_tables());
  }
  state.counters["warehouse_rows"] = static_cast<double>(rows);
  RecordHostInfo(state);
}
BENCHMARK(BM_RollbackLegacyClone)
    ->Arg(2)
    ->Arg(10)
    ->Iterations(30)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
