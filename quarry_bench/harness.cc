#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "obs/trace.h"
#include "ontology/tpch_ontology.h"

namespace quarry::bench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ThreadCpuMillis() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  int64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

namespace {

/// The probe kernel: 2,000 keys "key-<n>-<d>" over 3,500 possible strings,
/// hash-aggregated in a std::unordered_map, then a value per key sorted --
/// string building, node allocation, hashing and sorting, the row
/// executor's kind of work.
void ProbeKernel() {
  uint64_t x = 88172645463325252ULL;
  std::vector<std::string> keys;
  keys.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back("key-" + std::to_string(x % 500) + "-" +
                   std::to_string(i % 7));
  }
  std::unordered_map<std::string, double> sums;
  for (const std::string& key : keys) sums[key] += 1.5;
  std::vector<double> values;
  values.reserve(keys.size());
  for (const std::string& key : keys) {
    values.push_back(sums[key] * static_cast<double>(key.size()));
  }
  std::sort(values.begin(), values.end());
  // Kept, so none of the work above is optimized away.
  [[maybe_unused]] volatile double kept =
      values[values.size() / 2] + static_cast<double>(sums.size());
}

/// The CPUs the process may run on, as it started.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> out;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
    }
    return out;
  }();
  return cpus;
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

void PinThread(size_t slot) {
  const std::vector<int>& cpus = AllowedCpus();
  PinTo(cpus[slot % cpus.size()]);
}

/// One pinned probe thread.
struct SpeedProbes::Probe {
  struct Sample {
    Clock::time_point start;
    double millis;
  };

  explicit Probe(int cpu) : cpu(cpu), thread([this] { Loop(); }) {}
  ~Probe() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    thread.join();
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void Loop() {
    PinTo(cpu);
    std::unique_lock<std::mutex> lock(mu);
    while (!stop) {
      lock.unlock();
      const auto start = Clock::now();
      ProbeKernel();
      const double millis = MillisSince(start);
      lock.lock();
      samples.push_back({start, millis});
      cv.wait_for(lock, kProbePeriod, [this] { return stop; });
    }
  }

  const int cpu;
  mutable std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::vector<Sample> samples;  ///< In start order.
  std::thread thread;  ///< Last: starts once the fields above exist.
};

SpeedProbes::SpeedProbes() {
  for (int cpu : AllowedCpus()) {
    probes_.push_back(std::make_unique<Probe>(cpu));
  }
}

SpeedProbes::~SpeedProbes() = default;

double SpeedProbes::Scale(int cpu, Clock::time_point start,
                          Clock::time_point end) const {
  const Clock::duration span =
      std::max<Clock::duration>(end - start, kMinProbeWindow);
  const Clock::time_point from = start + (end - start) / 2 - span / 2;
  const Clock::time_point to = from + span;
  for (const std::unique_ptr<Probe>& probe : probes_) {
    if (probe->cpu != cpu) continue;
    std::lock_guard<std::mutex> lock(probe->mu);
    auto it = std::lower_bound(
        probe->samples.begin(), probe->samples.end(), from,
        [](const Probe::Sample& s, Clock::time_point t) { return s.start < t; });
    double sum = 0;
    int n = 0;
    for (; it != probe->samples.end() && it->start <= to; ++it) {
      sum += it->millis;
      ++n;
    }
    return n > 0 ? std::pow(kReferenceProbeMs * n / sum, kProbeExponent) : 1;
  }
  return 1;
}

double SpeedProbes::MedianProbeMillis() const {
  std::vector<double> all;
  for (const std::unique_ptr<Probe>& probe : probes_) {
    std::lock_guard<std::mutex> lock(probe->mu);
    for (const Probe::Sample& s : probe->samples) all.push_back(s.millis);
  }
  return Percentile(std::move(all), 0.5);
}

void Phase::AddOp(Clock::time_point start, Clock::time_point end,
                  double cpu_millis, size_t kind) {
  const Op op{start, end, sched_getcpu(), cpu_millis, kind};
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(op);
}

void Phase::Attempt(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Phase::Fail(std::string what) {
  std::lock_guard<std::mutex> lock(mu_);
  failures_.push_back(std::move(what));
}

void Phase::AddFingerprint(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  fingerprints_.push_back(fingerprint);
}

void Phase::AddSecondary(const std::string& stream, double millis) {
  std::lock_guard<std::mutex> lock(mu_);
  secondary_[stream].push_back(millis);
}

void Phase::SetDetail(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  details_[name] = value;
}

std::vector<Op> Phase::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

int64_t Phase::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::vector<std::string> Phase::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

std::vector<uint64_t> Phase::fingerprints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fingerprints_;
}

std::map<std::string, std::vector<double>> Phase::secondary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return secondary_;
}

std::map<std::string, double> Phase::details() const {
  std::lock_guard<std::mutex> lock(mu_);
  return details_;
}

void LayerSamples::Add(const std::string& series, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[series].push_back(value);
}

std::vector<double> LayerSamples::Get(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(series);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

Result<std::unique_ptr<core::Quarry>> CreateTpchQuarry(
    const storage::Database* source) {
  const core::QuarryConfig defaults;
  return core::Quarry::Create(ontology::BuildTpchOntology(),
                              ontology::BuildTpchMappings(), source, defaults);
}

void SampleStore(const storage::GenerationStore& store,
                 LayerSamples* samples) {
  const storage::GenerationStoreStats stats = store.stats();
  samples->Add("storage.live_generations_max", stats.live_generations);
  samples->Add("storage.active_pins_max", stats.active_pins);
}

void SamplePublished(const storage::GenerationStore& store,
                     LayerSamples* samples) {
  SampleStore(store, samples);
  Result<storage::GenerationStore::Pin> pin = store.Acquire();
  if (!pin.ok()) return;
  const auto rows = static_cast<double>(pin->db().TotalRows());
  samples->Add("storage.generation_rows", rows);
  if (store.durable() && rows > 0) {
    const int64_t bytes = DirBytes(store.durable_dir() + "/gen-" +
                                   std::to_string(pin->generation()));
    samples->Add("storage.disk_bytes_per_row",
                 static_cast<double>(bytes) / rows);
  }
}

namespace {

/// A span-derived series: every span named `span` adds its duration (or
/// its self time: duration minus what its child spans cover) times `scale`.
struct SpanSeries {
  const char* span;
  const char* series;
  bool self;
  double scale;  ///< From microseconds.
};

constexpr SpanSeries kSpanSeries[] = {
    // SubmitQuery outside its inner span: tenant gate, admission, request
    // bookkeeping.
    {"bench.SubmitQuery", "core.query_gate_us", true, 1},
    // The pinned query: pin, compile, plan run, copy-out; and all of it but
    // the plan run.
    {"quarry.submit_query", "olap.query_ms", false, 1e-3},
    {"quarry.submit_query", "olap.query_self_us", true, 1},
    // RefreshServing's build outside the refresh ETL and the durable
    // commit: the clone of the served generation, the schema annex and the
    // in-memory publish.
    {"quarry.refresh_serving", "storage.clone_ms", true, 1e-3},
    {"generation_store.persist", "storage.publish_ms", false, 1e-3},
    {"deploy.refresh", "deployer.refresh_ms", false, 1e-3},
    {"deploy", "deployer.deploy_ms", false, 1e-3},
    {"interpreter.interpret", "interpreter.interpret_ms", false, 1e-3},
    {"integrator.add_requirement", "integrator.submit_ms", false, 1e-3},
    {"quarry.store_artifacts", "docstore.store_ms", false, 1e-3},
};

/// The flow an etl.run belongs to, by its nearest ancestor of these names.
constexpr std::pair<std::string_view, std::string_view> kFlowOwners[] = {
    {"quarry.submit_query", "query"},
    {"deploy.refresh", "refresh"},
    {"deploy.etl", "deploy"},
    {"bench.UnifiedFlow", "s2b_unified"},
};

constexpr std::string_view kNodePrefix = "etl.node.";

int64_t IntAttr(const obs::SpanRecord& span, std::string_view key) {
  for (const obs::SpanAttr& attr : span.attrs) {
    if (attr.key == key) return std::strtoll(attr.value.c_str(), nullptr, 10);
  }
  return 0;
}

}  // namespace

void AddSpanSamples(LayerSamples* samples) {
  std::vector<obs::SpanRecord> spans = obs::TraceRecorder::Instance().Snapshot();
  // Per thread in start order, an enclosing span before what it encloses;
  // a span's parent is then the latest earlier span one level up.
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
  const size_t n = spans.size();
  std::vector<size_t> parent(n, n);
  std::vector<double> child_us(n, 0);
  std::vector<double> etl_child_us(n, 0);  // deploy.etl children only
  std::vector<size_t> open;  // by depth, on the current thread
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || spans[i].tid != spans[i - 1].tid) open.clear();
    const size_t depth = spans[i].depth;
    if (depth > 0 && depth <= open.size()) {
      parent[i] = open[depth - 1];
      child_us[parent[i]] += spans[i].dur_us;
      if (spans[i].name == "deploy.etl") {
        etl_child_us[parent[i]] += spans[i].dur_us;
      }
    }
    open.resize(depth);
    open.push_back(i);
  }

  for (size_t i = 0; i < n; ++i) {
    const obs::SpanRecord& span = spans[i];
    for (const SpanSeries& s : kSpanSeries) {
      if (span.name != s.span) continue;
      const double us = s.self ? span.dur_us - child_us[i] : span.dur_us;
      samples->Add(s.series, us * s.scale);
    }
    // A deploy outside its ETL: generate, DDL, integrity, metadata record.
    if (span.name == "deploy") {
      samples->Add("deployer.non_etl_ms",
                   (span.dur_us - etl_child_us[i]) / 1e3);
    }
  }

  // Per-operator time and input rows of each ETL run, by flow.
  std::vector<std::map<std::string, std::pair<double, double>>> ops(n);
  std::vector<int64_t> retries(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const obs::SpanRecord& span = spans[i];
    if (span.name.compare(0, kNodePrefix.size(), kNodePrefix) != 0 ||
        parent[i] == n) {
      continue;
    }
    std::string op = span.name.substr(kNodePrefix.size());
    std::transform(op.begin(), op.end(), op.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    auto& [ms, rows_in] = ops[parent[i]][op];
    ms += span.dur_us / 1e3;
    rows_in += static_cast<double>(IntAttr(span, "rows_in"));
    retries[parent[i]] += std::max<int64_t>(0, IntAttr(span, "attempts") - 1);
  }
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].name != "etl.run") continue;
    std::string_view flow;
    for (size_t a = parent[i]; a != n && flow.empty(); a = parent[a]) {
      for (const auto& [owner, name] : kFlowOwners) {
        if (spans[a].name == owner) flow = name;
      }
    }
    if (flow.empty()) continue;
    const std::string prefix = "etl." + std::string(flow) + ".";
    double rows_processed = 0;
    for (const auto& [op, stats] : ops[i]) {
      samples->Add(prefix + op + ".self_ms", stats.first);
      samples->Add(prefix + op + ".rows_in", stats.second);
      rows_processed += stats.second;
    }
    samples->Add(prefix + "rows_processed", rows_processed);
    samples->Add(prefix + "retries", static_cast<double>(retries[i]));
  }
}

std::unique_ptr<Workload> MakeWorkload(const Options& options,
                                       const std::string& dir) {
  if (options.workload == "olap_read") return MakeOlapRead(options);
  if (options.workload == "olap_refresh") return MakeOlapRefresh(options, dir);
  if (options.workload == "design_churn") return MakeDesignChurn(options, dir);
  if (options.workload == "etl_s2b") return MakeEtlS2b(options);
  return nullptr;
}

}  // namespace quarry::bench
