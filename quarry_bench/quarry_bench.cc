// quarry_bench: the end-to-end benchmark of Quarry (quarry_bench/README.md).
//
//   quarry_bench --workload <olap_read|olap_refresh|design_churn|etl_s2b>
//                --seed N --seconds S --trace 0|1
//                [--smoke] [--fail-check] [--work-dir DIR]
//                [--trace-file PATH]
//
// Untraced (--trace 0): set up three times (setup_s is the median), run the
// measured window, check the outputs, and print the end-to-end metrics.
// Traced (--trace 1): set up and run an untraced half-window, then set up
// again and run a half-window with obs::TraceRecorder on; print the
// per-layer metrics and trace.overhead_frac, and check both halves
// published the same generation fingerprints.
//
// Every load thread is pinned to a CPU, and a host-speed probe on each CPU
// times a small reference kernel every 10 ms; each end-to-end time is
// scaled by kReferenceProbeMs over the mean probe time on its CPU while it
// ran.
//
// Human-readable detail goes to stderr; the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. Exits 1 after printing it when an operation or output check
// failed; exits non-zero with no result when a set-up fails.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "json/json.h"
#include "obs/request_log.h"
#include "obs/trace.h"

namespace quarry::bench {

namespace {

constexpr int kSetups = 3;
/// Spans a traced half-window may record: the busiest (olap_read) records
/// about 30k in a ten-second half.
constexpr size_t kTraceCapacity = 1 << 18;

enum class Reduce { kP50, kP95, kMax, kSum, kLast };

struct LayerMetric {
  std::string name;
  std::string unit;
  std::string series;  ///< Empty: the series of the same name.
  Reduce reduce;
};

/// The per_layer metrics of BENCHMARK.json, in its order.
std::vector<LayerMetric> LayerMetrics() {
  std::vector<LayerMetric> metrics = {
      {"core.query_gate_us", "us", "", Reduce::kP50},
      {"core.admission_wait_us", "us", "", Reduce::kP95},
      {"storage.pin_us", "us", "", Reduce::kP50},
      {"storage.clone_ms", "ms", "", Reduce::kP50},
      {"storage.publish_ms", "ms", "", Reduce::kP50},
      {"storage.generation_rows", "count", "", Reduce::kLast},
      {"storage.disk_bytes_per_row", "B/row", "", Reduce::kLast},
      {"storage.live_generations_max", "count", "", Reduce::kMax},
      {"storage.active_pins_max", "count", "", Reduce::kMax},
      {"olap.compile_us", "us", "", Reduce::kP50},
      {"olap.query_ms", "ms", "", Reduce::kP50},
      {"olap.query_p95_ms", "ms", "olap.query_ms", Reduce::kP95},
      {"olap.query_self_us", "us", "", Reduce::kP50},
      {"olap.rows_examined_per_result_row", "ratio", "", Reduce::kP50},
  };
  const std::vector<std::string> query_ops = {
      "datastore", "function", "projection", "join", "aggregation", "loader"};
  const std::vector<std::string> flow_ops = {
      "datastore", "extraction", "selection",   "join",
      "function",  "projection", "aggregation", "loader"};
  for (const std::string flow : {"query", "refresh", "deploy",
                                 "s2b_unified"}) {
    const std::string prefix = "etl." + flow + ".";
    for (const std::string& op : flow == "query" ? query_ops : flow_ops) {
      metrics.push_back({prefix + op + ".self_ms", "ms", "", Reduce::kP50});
      if (op == "datastore") continue;  // reads its table, takes no input
      metrics.push_back({prefix + op + ".rows_in", "count", "", Reduce::kP50});
    }
    metrics.push_back({prefix + "rows_processed", "count", "", Reduce::kP50});
    metrics.push_back({prefix + "retries", "count", "", Reduce::kSum});
  }
  const std::vector<LayerMetric> rest = {
      {"etl.s2b_separate.total_ms", "ms", "", Reduce::kP50},
      {"etl.s2b_separate.rows_processed", "count", "", Reduce::kP50},
      {"deployer.refresh_ms", "ms", "", Reduce::kP50},
      {"deployer.refresh_stale_rows", "count", "", Reduce::kLast},
      {"deployer.deploy_ms", "ms", "", Reduce::kP50},
      {"deployer.non_etl_ms", "ms", "", Reduce::kP50},
      {"interpreter.interpret_ms", "ms", "", Reduce::kP50},
      {"integrator.submit_ms", "ms", "", Reduce::kP50},
      {"integrator.etl_nodes_reused_frac", "frac", "", Reduce::kP50},
      {"integrator.rows_saved_frac", "frac", "", Reduce::kLast},
      {"docstore.store_ms", "ms", "", Reduce::kP50},
      {"docstore.metadata_bytes_per_event", "B", "", Reduce::kP50},
      {"datagen.populate_s", "s", "", Reduce::kP50},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  return metrics;
}

double Reduced(const std::vector<double>& samples, Reduce reduce) {
  if (samples.empty()) return 0;
  switch (reduce) {
    case Reduce::kP50: return Percentile(samples, 0.50);
    case Reduce::kP95: return Percentile(samples, 0.95);
    case Reduce::kMax: return Percentile(samples, 1.0);
    case Reduce::kLast: return samples.back();
    case Reduce::kSum: {
      double sum = 0;
      for (double v : samples) sum += v;
      return sum;
    }
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke" && arg != "--fail-check" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options->trace = value == "1";
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--fail-check") {
      options->fail_check = true;
    } else if (arg == "--work-dir") {
      options->work_dir = value;
    } else if (arg == "--trace-file") {
      options->trace_file = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// One workload's set-ups and measured windows, scaled to the reference
/// host. Runs on the main thread, pinned to the first CPU.
class Runner {
 public:
  Runner(Workload* workload, const SpeedProbes* probes)
      : workload_(workload), probes_(probes) {}

  /// The set-up's scaled seconds; negative when it failed.
  double Setup(int index, LayerSamples* samples) {
    const auto start = Clock::now();
    Status status = workload_->Setup(index, samples);
    const auto end = Clock::now();
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return -1;
    }
    const double seconds =
        std::chrono::duration<double>(end - start).count();
    measured_setups_s_.push_back(seconds);
    return seconds * probes_->Scale(sched_getcpu(), start, end);
  }

  /// The window's primary operations: latency and CPU time of each, scaled,
  /// and the scaled latencies by kind.
  struct Window {
    std::vector<double> op_ms;
    std::vector<double> cpu_ms;
    std::map<size_t, std::vector<double>> op_ms_by_kind;
  };

  Window RunWindow(double seconds, LayerSamples* samples, Phase* phase) {
    workload_->Run(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds)),
                   samples, phase);
    // The probes after the last short operation.
    std::this_thread::sleep_for(kMinProbeWindow / 2);
    Window window;
    for (const Op& op : phase->ops()) {
      const double scale = probes_->Scale(op.cpu, op.start, op.end);
      window.op_ms.push_back(op.millis() * scale);
      window.cpu_ms.push_back(op.cpu_millis * scale);
      window.op_ms_by_kind[op.kind].push_back(window.op_ms.back());
    }
    return window;
  }

  const std::vector<double>& measured_setups_s() const {
    return measured_setups_s_;
  }

 private:
  Workload* workload_;
  const SpeedProbes* probes_;
  std::vector<double> measured_setups_s_;
};

void AddMetric(json::Object* metrics, const std::string& name, double value,
               const std::string& unit) {
  metrics->emplace_back(name, json::Object{{"value", value}, {"unit", unit}});
}

/// The median latency: the geometric mean, over the kinds of operation, of
/// each kind's median. With one kind, the plain median. With several kinds
/// of different cost (olap_read's templates, design_churn's events) the
/// plain median would sit on the boundary between a faster and a slower
/// kind and jump between them from run to run; the geometric mean moves
/// by the same share whichever kind gets faster by a share.
double MedianOfKinds(const Runner::Window& window) {
  double log_sum = 0;
  for (const auto& [kind, millis] : window.op_ms_by_kind) {
    log_sum += std::log(Percentile(millis, 0.5));
  }
  const auto kinds = static_cast<double>(window.op_ms_by_kind.size());
  return kinds > 0 ? std::exp(log_sum / kinds) : 0;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

uint64_t LastRequestId() {
  uint64_t last = 0;
  for (const obs::RequestRecord& r : obs::RequestLog::Instance().Snapshot()) {
    last = std::max(last, r.id);
  }
  return last;
}

int Main(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/work";
  if (!ParseArgs(argc, argv, &options)) return 2;
  ScratchDir scratch{options.work_dir + "/" + options.workload + "-" +
                     std::to_string(getpid())};
  std::unique_ptr<Workload> workload = MakeWorkload(options, scratch.path);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(scratch.path, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", scratch.path.c_str());
    return 2;
  }

  // Before any other thread: the probes' malloc arenas are their own.
  SpeedProbes probes;
  PinThread(0);
  Runner runner(workload.get(), &probes);
  Phase plain;
  Phase traced;
  std::vector<const Phase*> phases = {&plain};
  json::Object metrics;
  json::Object detail{{"workload", options.workload},
                      {"seed", static_cast<int64_t>(options.seed)}};
  if (!options.trace) {
    std::vector<double> setups;
    for (int i = 0; i < (options.smoke ? 1 : kSetups); ++i) {
      setups.push_back(runner.Setup(i, nullptr));
      if (setups.back() < 0) return 1;
    }
    const Runner::Window window =
        runner.RunWindow(options.seconds, nullptr, &plain);
    const double peak_rss_mb = PeakRssMb();
    workload->Check(nullptr, &plain);
    AddMetric(&metrics, "setup_s", Percentile(setups, 0.5), "s");
    AddMetric(&metrics, "op_p50_ms", MedianOfKinds(window), "ms");
    AddMetric(&metrics, "op_mean_ms", Mean(window.op_ms), "ms");
    AddMetric(&metrics, "cpu_ms_per_op", Mean(window.cpu_ms), "ms");
    AddMetric(&metrics, "peak_rss_mb", peak_rss_mb, "MB");
    std::vector<double> ops;
    for (const Op& op : plain.ops()) ops.push_back(op.millis());
    const std::vector<double>& measured = runner.measured_setups_s();
    detail.emplace_back("ops", static_cast<int64_t>(ops.size()));
    detail.emplace_back("measured_setups_s",
                        json::Array(measured.begin(), measured.end()));
    detail.emplace_back("measured_op_p50_ms", Percentile(ops, 0.50));
    detail.emplace_back("measured_op_mean_ms", Mean(ops));
    detail.emplace_back("measured_op_p95_ms", Percentile(ops, 0.95));
  } else {
    phases.push_back(&traced);
    LayerSamples samples;
    if (runner.Setup(0, nullptr) < 0) return 1;
    const Runner::Window plain_window =
        runner.RunWindow(options.seconds / 2, nullptr, &plain);
    workload->Check(nullptr, &plain);
    if (runner.Setup(1, &samples) < 0) return 1;
    const uint64_t first_request = LastRequestId() + 1;
    obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
    recorder.Start(kTraceCapacity);
    const Runner::Window traced_window =
        runner.RunWindow(options.seconds / 2, &samples, &traced);
    recorder.Stop();
    AddSpanSamples(&samples);
    for (const obs::RequestRecord& r : obs::RequestLog::Instance().Snapshot()) {
      if (r.id >= first_request) {
        samples.Add("core.admission_wait_us", r.admission_wait_micros);
      }
    }
    workload->Check(&samples, &traced);
    // The traced half must publish what the untraced half published, over
    // the generations both reached.
    const std::vector<uint64_t> plain_prints = plain.fingerprints();
    const std::vector<uint64_t> traced_prints = traced.fingerprints();
    const size_t common = std::min(plain_prints.size(), traced_prints.size());
    traced.Attempt();
    if (common == 0 || !std::equal(plain_prints.begin(),
                                   plain_prints.begin() + common,
                                   traced_prints.begin())) {
      traced.Fail("traced run published other generation fingerprints "
                  "than the untraced run");
    }
    json::Object sample_counts;  // what each per-layer percentile rests on
    for (const LayerMetric& m : LayerMetrics()) {
      const std::vector<double> values =
          samples.Get(m.series.empty() ? m.name : m.series);
      AddMetric(&metrics, m.name, Reduced(values, m.reduce), m.unit);
      if (!values.empty()) {
        sample_counts.emplace_back(m.name,
                                   static_cast<int64_t>(values.size()));
      }
    }
    const double plain_p50 = MedianOfKinds(plain_window);
    const double traced_p50 = MedianOfKinds(traced_window);
    AddMetric(&metrics, "trace.overhead_frac",
              plain_p50 > 0 ? traced_p50 / plain_p50 - 1 : 0, "frac");
    detail.emplace_back("samples", std::move(sample_counts));
    detail.emplace_back("ops", static_cast<int64_t>(
                                   plain_window.op_ms.size() +
                                   traced_window.op_ms.size()));
    detail.emplace_back("fingerprints_compared", static_cast<int64_t>(common));
    detail.emplace_back("spans", static_cast<int64_t>(recorder.size()));
    detail.emplace_back("spans_dropped", recorder.dropped());
    if (!options.trace_file.empty()) {
      std::filesystem::path path(options.trace_file);
      if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path(), ec);
      }
      std::string error;
      if (!recorder.WriteChromeTrace(options.trace_file, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      detail.emplace_back("trace_file", options.trace_file);
    }
  }

  if (options.fail_check) {
    plain.Attempt();
    plain.Fail("check failed on purpose (--fail-check)");
  }
  int64_t attempted = 0;
  json::Array failures;
  for (const Phase* phase : phases) {
    attempted += phase->attempted();
    for (const std::string& f : phase->failures()) failures.push_back(f);
  }
  const Phase& last = *phases.back();
  for (const auto& [stream, millis] : last.secondary()) {
    detail.emplace_back(stream + "_n", static_cast<int64_t>(millis.size()));
    detail.emplace_back(stream + "_p50_ms", Percentile(millis, 0.50));
    detail.emplace_back(stream + "_p95_ms", Percentile(millis, 0.95));
  }
  for (const auto& [name, value] : last.details()) {
    detail.emplace_back(name, value);
  }
  detail.emplace_back("probe_p50_ms", probes.MedianProbeMillis());
  const auto failed = static_cast<int64_t>(failures.size());
  for (const json::Value& f : failures) {
    std::fprintf(stderr, "failure: %s\n", f.as_string().c_str());
  }
  detail.emplace_back("failures", std::move(failures));
  std::fprintf(stderr, "detail: %s\n", json::Write(detail).c_str());
  const bool correct = failed == 0 && attempted > 0;
  const json::Object result{{"correct", correct},
                            {"attempted", attempted},
                            {"failed", failed},
                            {"metrics", std::move(metrics)}};
  std::printf("%s\n", json::Write(result).c_str());
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace quarry::bench

int main(int argc, char** argv) { return quarry::bench::Main(argc, argv); }
