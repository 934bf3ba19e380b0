// Robustness experiments (docs/ROBUSTNESS.md, BENCH_robustness.json):
//  - checkpoint overhead: resilient ETL execution (retry policy + checkpoint
//    + loader snapshots) vs the plain fail-fast path, faults disabled;
//  - recovery latency: resuming a failed run from its checkpoint vs
//    re-running the whole flow, after an injected fault at the last loader.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/quarry.h"
#include "datagen/tpch.h"
#include "deployer/deployer.h"
#include "deployer/sql_generator.h"
#include "ontology/tpch_ontology.h"
#include "requirements/workload.h"
#include "storage/sql.h"

namespace {

using quarry::core::Quarry;
using quarry::fault::Injector;

quarry::storage::Database& SharedSource() {
  static quarry::storage::Database* db = [] {
    auto* d = new quarry::storage::Database("tpch");
    if (!quarry::datagen::PopulateTpch(d, {0.01, 77}).ok()) std::abort();
    return d;
  }();
  return *db;
}

/// The unified design of a 4-requirement workload, plus an empty warehouse
/// with its DDL already applied (cloned fresh for every measured run).
struct Scenario {
  std::unique_ptr<Quarry> quarry;
  std::unique_ptr<quarry::storage::Database> empty_warehouse;
  int64_t loader_writes = 0;  ///< Fault-site hits of one clean ETL run.
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

    // Count loader writes so the recovery benches can kill the LAST one.
    Injector::Instance().ClearConfigs();
    Injector::Instance().Enable(/*seed=*/7);
    auto target = scenario->empty_warehouse->Clone();
    quarry::etl::Executor executor(&SharedSource(), target.get());
    if (!executor.Run(scenario->quarry->flow()).ok()) std::abort();
    scenario->loader_writes =
        Injector::Instance().HitCount("etl.exec.Loader.write");
    Injector::Instance().Disable();
    return scenario;
  }();
  return *s;
}

void BM_EtlRunPlain(benchmark::State& state) {
  Scenario& s = SharedScenario();
  int64_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto target = s.empty_warehouse->Clone();
    state.ResumeTiming();
    quarry::etl::Executor executor(&SharedSource(), target.get());
    auto report = executor.Run(s.quarry->flow());
    if (!report.ok()) std::abort();
    rows = report->rows_processed;
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_EtlRunPlain);

void BM_EtlRunCheckpointed(benchmark::State& state) {
  Scenario& s = SharedScenario();
  quarry::etl::RetryPolicy retry;
  retry.max_attempts = 3;
  for (auto _ : state) {
    state.PauseTiming();
    auto target = s.empty_warehouse->Clone();
    state.ResumeTiming();
    quarry::etl::Executor executor(&SharedSource(), target.get());
    quarry::etl::Checkpoint checkpoint;
    auto report = executor.Run(s.quarry->flow(), retry, &checkpoint);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(checkpoint.completed.size());
  }
}
BENCHMARK(BM_EtlRunCheckpointed);

void BM_DeployTransactionalFaultsOff(benchmark::State& state) {
  Scenario& s = SharedScenario();
  for (auto _ : state) {
    auto outcome = s.quarry->DeployServing();
    if (!outcome.ok() || !outcome->success) std::abort();
    benchmark::DoNotOptimize(outcome->report.tables_created);
  }
}
BENCHMARK(BM_DeployTransactionalFaultsOff);

/// One failed run (fault at the last loader write), then the measured
/// recovery: Resume re-runs only what the checkpoint lacks.
void BM_RecoverViaResume(benchmark::State& state) {
  Scenario& s = SharedScenario();
  for (auto _ : state) {
    state.PauseTiming();
    auto target = s.empty_warehouse->Clone();
    Injector::Instance().ClearConfigs();
    Injector::Instance().Configure("etl.exec.Loader.write",
                                   {.trigger_on_hit = s.loader_writes});
    Injector::Instance().Enable(7);
    quarry::etl::Executor executor(&SharedSource(), target.get());
    quarry::etl::Checkpoint checkpoint;
    if (executor.Run(s.quarry->flow(), quarry::etl::RetryPolicy{},
                     &checkpoint)
            .ok()) {
      std::abort();  // the injected fault must fail the run
    }
    Injector::Instance().Disable();
    state.ResumeTiming();
    auto report = executor.Resume(s.quarry->flow(), &checkpoint);
    if (!report.ok() || !report->recovered) std::abort();
  }
}
BENCHMARK(BM_RecoverViaResume);

/// Same failed run, recovered the naive way: roll the target back and
/// re-run the whole flow from scratch.
void BM_RecoverViaFullRerun(benchmark::State& state) {
  Scenario& s = SharedScenario();
  for (auto _ : state) {
    state.PauseTiming();
    auto target = s.empty_warehouse->Clone();
    Injector::Instance().ClearConfigs();
    Injector::Instance().Configure("etl.exec.Loader.write",
                                   {.trigger_on_hit = s.loader_writes});
    Injector::Instance().Enable(7);
    quarry::etl::Executor executor(&SharedSource(), target.get());
    quarry::etl::Checkpoint checkpoint;
    if (executor.Run(s.quarry->flow(), quarry::etl::RetryPolicy{},
                     &checkpoint)
            .ok()) {
      std::abort();
    }
    Injector::Instance().Disable();
    state.ResumeTiming();
    auto fresh = s.empty_warehouse->Clone();
    quarry::etl::Executor rerun_exec(&SharedSource(), fresh.get());
    auto report = rerun_exec.Run(s.quarry->flow());
    if (!report.ok()) std::abort();
  }
}
BENCHMARK(BM_RecoverViaFullRerun);

void PrintSeries() {
  Scenario& s = SharedScenario();
  std::printf(
      "R1: resilient execution overhead + recovery latency "
      "(TPC-H sf=0.01, 4 IRs, %zu flow nodes)\n",
      s.quarry->flow().num_nodes());

  constexpr int kRuns = 5;
  double plain_ms = 0, checkpointed_ms = 0, resume_ms = 0, rerun_ms = 0;
  quarry::etl::RetryPolicy retry;
  retry.max_attempts = 3;
  for (int i = 0; i < kRuns; ++i) {
    {
      auto target = s.empty_warehouse->Clone();
      quarry::etl::Executor executor(&SharedSource(), target.get());
      quarry::Timer t;
      if (!executor.Run(s.quarry->flow()).ok()) std::abort();
      plain_ms += t.ElapsedMillis();
    }
    {
      auto target = s.empty_warehouse->Clone();
      quarry::etl::Executor executor(&SharedSource(), target.get());
      quarry::etl::Checkpoint checkpoint;
      quarry::Timer t;
      if (!executor.Run(s.quarry->flow(), retry, &checkpoint).ok()) {
        std::abort();
      }
      checkpointed_ms += t.ElapsedMillis();
    }
    {
      auto target = s.empty_warehouse->Clone();
      Injector::Instance().ClearConfigs();
      Injector::Instance().Configure("etl.exec.Loader.write",
                                     {.trigger_on_hit = s.loader_writes});
      Injector::Instance().Enable(7);
      quarry::etl::Executor executor(&SharedSource(), target.get());
      quarry::etl::Checkpoint checkpoint;
      if (executor.Run(s.quarry->flow(), quarry::etl::RetryPolicy{},
                       &checkpoint)
              .ok()) {
        std::abort();
      }
      Injector::Instance().Disable();
      quarry::Timer t_resume;
      if (!executor.Resume(s.quarry->flow(), &checkpoint).ok()) std::abort();
      resume_ms += t_resume.ElapsedMillis();

      auto fresh = s.empty_warehouse->Clone();
      quarry::etl::Executor rerun_exec(&SharedSource(), fresh.get());
      quarry::Timer t_rerun;
      if (!rerun_exec.Run(s.quarry->flow()).ok()) std::abort();
      rerun_ms += t_rerun.ElapsedMillis();
    }
  }
  plain_ms /= kRuns;
  checkpointed_ms /= kRuns;
  resume_ms /= kRuns;
  rerun_ms /= kRuns;
  std::printf("etl_plain_ms         | %8.2f\n", plain_ms);
  std::printf("etl_checkpointed_ms  | %8.2f  (overhead %+.1f%%)\n",
              checkpointed_ms,
              100.0 * (checkpointed_ms - plain_ms) / plain_ms);
  std::printf("recover_resume_ms    | %8.2f\n", resume_ms);
  std::printf("recover_rerun_ms     | %8.2f  (resume is %.1fx faster)\n",
              rerun_ms, rerun_ms / resume_ms);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
