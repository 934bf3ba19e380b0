// Chunk-runtime ETL throughput (DESIGN.md §8, BENCH_vectorized.json): three
// TPC-H flows (bench/etl_bench_flows.h) — two scan-heavy ones and one that
// exercises the join, group-by and keyed-merge hash tables — run through
// the executor at three scale factors, best-of-N wall clock and best-of-N
// process CPU time each. Every iteration of a configuration must land on
// the same target fingerprint and rows_processed — a run whose bytes
// wobble is a bug, not a number.
// Byte-equivalence with the row-at-a-time reference executor is the
// differential harness's job (tests/etl_parallel_test.cc runs all three).
//
// Flags:
//   --smoke      one small scale factor, two iterations; exits 1 when
//                the iterations disagree or the chunk kernels never ran —
//                wired into tools/run_all_checks.sh
//   --sf=CSV     comma-separated scale factors (default 0.005,0.01,0.02)
//   --iters=N    timed iterations per flow, best-of (default 5; smoke 2,
//                so the iteration-stability check has something to compare)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/tpch.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"
#include "etl_bench_flows.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace quarry {
namespace {

struct Options {
  bool smoke = false;
  std::vector<double> scale_factors = {0.005, 0.01, 0.02};
  int iters = 5;
};

Options ParseArgs(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      opts.scale_factors = {0.005};
      opts.iters = 2;
    } else if (arg.rfind("--sf=", 0) == 0) {
      opts.scale_factors.clear();
      std::string list = arg.substr(5);
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        opts.scale_factors.push_back(
            std::strtod(list.substr(pos, comma - pos).c_str(), nullptr));
        pos = comma + 1;
      }
    } else if (arg.rfind("--iters=", 0) == 0) {
      opts.iters = std::atoi(arg.c_str() + 8);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opts;
}

struct FlowResult {
  double best_ms = 0.0;
  double best_cpu_ms = 0.0;  ///< Process CPU time, best of the iterations.
  uint64_t fingerprint = 0;
  int64_t rows_processed = 0;
  bool stable = true;  ///< Every iteration matched the first's bytes.
};

double ProcessCpuMillis() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

FlowResult RunFlow(const storage::Database& source, const etl::Flow& flow,
                   int iters) {
  FlowResult result;
  result.best_ms = 1e30;
  result.best_cpu_ms = 1e30;
  for (int i = 0; i < iters; ++i) {
    storage::Database target("dw");
    etl::Executor executor(&source, &target);
    const double cpu_start = ProcessCpuMillis();
    const auto start = std::chrono::steady_clock::now();
    auto report = executor.Run(flow, etl::ExecOptions{}, etl::RetryPolicy{},
                               nullptr);
    const auto end = std::chrono::steady_clock::now();
    result.best_cpu_ms =
        std::min(result.best_cpu_ms, ProcessCpuMillis() - cpu_start);
    if (!report.ok()) {
      std::fprintf(stderr, "flow %s failed: %s\n", flow.name().c_str(),
                   report.status().ToString().c_str());
      std::exit(1);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    result.best_ms = std::min(result.best_ms, ms);
    if (i > 0 && (target.Fingerprint() != result.fingerprint ||
                  report->rows_processed != result.rows_processed)) {
      result.stable = false;
    }
    result.fingerprint = target.Fingerprint();
    result.rows_processed = report->rows_processed;
  }
  return result;
}

double LoadAverage1Min() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  if (!in || !(in >> load)) return -1.0;
  return load;
}

int Main(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);
  int failures = 0;

  std::printf("{\n  \"bench\": \"bench_etl_vectorized\",\n");
  std::printf("  \"smoke\": %s,\n", opts.smoke ? "true" : "false");
  std::printf("  \"iters_per_flow\": %d,\n", opts.iters);
  std::printf("  \"host_hw_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"host_load_avg_1min\": %.2f,\n", LoadAverage1Min());
  std::printf("  \"scenarios\": [\n");

  bool first = true;
  const int64_t chunk_rows_before = obs::MetricsRegistry::Instance()
                                        .counter("quarry_etl_chunk_rows_total")
                                        .value();
  for (double sf : opts.scale_factors) {
    storage::Database source("tpch");
    auto populated = datagen::PopulateTpch(&source, {sf, 23});
    if (!populated.ok()) {
      std::fprintf(stderr, "PopulateTpch(%g) failed: %s\n", sf,
                   populated.ToString().c_str());
      return 1;
    }
    const int64_t lineitem_rows =
        static_cast<int64_t>((*source.GetTable("lineitem"))->num_rows());

    for (const etl::Flow& flow : {benchflows::BuildScanAggFlow(),
                                  benchflows::BuildFilterProjectLoadFlow(),
                                  benchflows::BuildJoinGroupLoadFlow()}) {
      FlowResult run = RunFlow(source, flow, opts.iters);
      if (!run.stable) {
        ++failures;
        std::fprintf(stderr,
                     "UNSTABLE: flow %s sf %g changed bytes or "
                     "rows_processed between iterations\n",
                     flow.name().c_str(), sf);
      }
      if (!first) std::printf(",\n");
      first = false;
      std::printf(
          "    {\"flow\": \"%s\", \"scale_factor\": %g, "
          "\"lineitem_rows\": %lld, \"best_ms\": %.2f, "
          "\"best_cpu_ms\": %.2f, \"rows_processed\": %lld, "
          "\"stable\": %s}",
          flow.name().c_str(), sf, static_cast<long long>(lineitem_rows),
          run.best_ms, run.best_cpu_ms,
          static_cast<long long>(run.rows_processed),
          run.stable ? "true" : "false");
    }
  }
  std::printf("\n  ]\n}\n");

  // The runs must have gone through the chunk kernels.
  const int64_t chunk_rows = obs::MetricsRegistry::Instance()
                                 .counter("quarry_etl_chunk_rows_total")
                                 .value() -
                             chunk_rows_before;
  if (chunk_rows <= 0) {
    std::fprintf(stderr, "chunk kernels never ran\n");
    ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d invariant(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "etl chunk bench: every iteration matched\n");
  return 0;
}

}  // namespace
}  // namespace quarry

int main(int argc, char** argv) { return quarry::Main(argc, argv); }
