// Request-lifecycle experiments (docs/ROBUSTNESS.md §7,
// BENCH_lifecycle.json):
//  - cancellation-check overhead: the unified ETL flow executed with no
//    ExecContext vs with an unbounded one attached (per-node pre-checks,
//    per-chunk cooperative polls and budget charges on the hot path) —
//    the acceptance bound is < 2% overhead;
//  - admission-gate throughput: Admit/Release cycles through a saturated
//    AdmissionController from 1..8 threads, measuring what the FIFO
//    queue + condvar cost under contention.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/exec_context.h"
#include "core/admission.h"
#include "core/quarry.h"
#include "datagen/tpch.h"
#include "deployer/sql_generator.h"
#include "etl/exec/executor.h"
#include "ontology/tpch_ontology.h"
#include "requirements/workload.h"
#include "storage/sql.h"

namespace {

using quarry::CancellationToken;
using quarry::Deadline;
using quarry::ExecContext;
using quarry::core::AdmissionController;
using quarry::core::Quarry;

quarry::storage::Database& SharedSource() {
  static quarry::storage::Database* db = [] {
    auto* d = new quarry::storage::Database("tpch");
    if (!quarry::datagen::PopulateTpch(d, {0.01, 77}).ok()) std::abort();
    return d;
  }();
  return *db;
}

struct Scenario {
  std::unique_ptr<Quarry> quarry;
  std::unique_ptr<quarry::storage::Database> empty_warehouse;
};

Scenario& SharedScenario() {
  static Scenario* s = [] {
    auto* scenario = new Scenario();
    auto q = Quarry::Create(quarry::ontology::BuildTpchOntology(),
                            quarry::ontology::BuildTpchMappings(),
                            &SharedSource());
    if (!q.ok()) std::abort();
    scenario->quarry = std::move(*q);
    quarry::req::WorkloadConfig config;
    config.num_requirements = 4;
    config.overlap = 0.6;
    config.seed = 21;
    for (const auto& ir : quarry::req::GenerateTpchWorkload(config)) {
      if (!scenario->quarry->AddRequirement(ir).ok()) std::abort();
    }
    auto ddl = quarry::deployer::GenerateSql(scenario->quarry->schema(),
                                             scenario->quarry->mapping(),
                                             SharedSource());
    if (!ddl.ok()) std::abort();
    auto warehouse = std::make_unique<quarry::storage::Database>();
    if (!quarry::storage::ExecuteSql(warehouse.get(), *ddl).ok()) {
      std::abort();
    }
    scenario->empty_warehouse = std::move(warehouse);
    return scenario;
  }();
  return *s;
}

// Baseline: the unified ETL flow with no lifecycle attached (ctx ==
// nullptr compiles the checks down to a null test per node).
void BM_EtlNoContext(benchmark::State& state) {
  Scenario& s = SharedScenario();
  for (auto _ : state) {
    auto target = s.empty_warehouse->Clone();
    quarry::etl::Executor executor(&SharedSource(), target.get());
    auto report = executor.Run(s.quarry->flow(), {}, nullptr, nullptr);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report->rows_processed);
  }
}
BENCHMARK(BM_EtlNoContext)->Unit(benchmark::kMillisecond);

// Same flow with a live (never-firing) ExecContext: every node pre-checks,
// every kernel polls the token once per chunk, every emitted chunk is
// charged against the (unlimited) budgets.
void BM_EtlWithContext(benchmark::State& state) {
  Scenario& s = SharedScenario();
  for (auto _ : state) {
    ExecContext ctx(CancellationToken(), Deadline::Infinite());
    auto target = s.empty_warehouse->Clone();
    quarry::etl::Executor executor(&SharedSource(), target.get());
    auto report = executor.Run(s.quarry->flow(), {}, nullptr, &ctx);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report->rows_processed);
  }
}
BENCHMARK(BM_EtlWithContext)->Unit(benchmark::kMillisecond);

// Admit/Release cycles through a gate that is exactly at capacity for the
// thread count, so every admit contends on the mutex and most pass through
// the FIFO queue. Reported as cycles/second across all threads.
void BM_AdmissionSaturated(benchmark::State& state) {
  static AdmissionController* gate = nullptr;
  if (state.thread_index() == 0) {
    quarry::core::AdmissionOptions options;
    options.max_in_flight = std::max(1, state.threads() / 2);
    options.max_queue_depth = state.threads();
    gate = new AdmissionController(options);
  }
  for (auto _ : state) {
    auto ticket = gate->Admit();
    if (!ticket.ok()) std::abort();  // Queue is deep enough to never shed.
    benchmark::DoNotOptimize(ticket->held());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["in_flight_limit"] =
        static_cast<double>(gate->options().max_in_flight);
  }
}
BENCHMARK(BM_AdmissionSaturated)->ThreadRange(1, 8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
