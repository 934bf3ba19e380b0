#ifndef QUARRY_BENCH_HARNESS_H_
#define QUARRY_BENCH_HARNESS_H_

// Shared pieces of quarry_bench: run options, the measured-window record
// every workload fills, the per-layer sample map of a traced run, the
// host-speed probes, and small statistics helpers. Workloads drive
// Quarry only through its public API; nothing here reaches into src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/prng.h"
#include "common/status.h"
#include "core/quarry.h"
#include "storage/generation_store.h"

namespace quarry::bench {

using Clock = std::chrono::steady_clock;

/// Seed of every workload's requirement pool (req::GenerateTpchWorkload)
/// and TPC-H data (datagen::PopulateTpch): the default --seed. Both are
/// fixed, not drawn from --seed, because they set what every operation
/// costs: at sf 0.02 the median of one query template doubles from one data
/// seed to another. Runs at different seeds share the design and the data
/// and differ in their operation streams (README.md, "Load shape").
constexpr uint64_t kDesignSeed = 77;

struct Options {
  std::string workload;
  uint64_t seed = 77;
  double seconds = 15;
  bool trace = false;
  /// Tiny inputs and a few operations per workload: the smoke test that
  /// keeps the benchmark from rotting, not a measurement.
  bool smoke = false;
  /// Records one failed output check, so the smoke test can see a failing
  /// run print its result and exit 1.
  bool fail_check = false;
  /// Scratch space for durable directories; everything under it is removed
  /// before the process exits.
  std::string work_dir;
  /// Where a traced run writes its Chrome trace-event JSON (empty: none).
  std::string trace_file;
};

/// Nearest-rank percentile: the smallest sample with at least q*n samples at
/// or below it, i.e. sorted[ceil(q*n) - 1]. 0 for no samples.
double Percentile(std::vector<double> samples, double q);

double MillisSince(Clock::time_point start);
/// CPU time the calling thread has used, in milliseconds.
double ThreadCpuMillis();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();
/// Total size of the regular files under `dir` (0 when it does not exist).
int64_t DirBytes(const std::string& dir);

/// Pins the calling thread to the `slot`-th of the CPUs the process may run
/// on (round robin), so a host-speed probe shares its CPU. Every load
/// thread calls it first.
void PinThread(size_t slot);

/// \brief Host-speed probes (README.md, "Host-speed calibration").
///
/// One probe thread per CPU, pinned to it, runs a fixed reference kernel --
/// string building, hashing, node allocation and sorting, the row
/// executor's kind of work, none of it Quarry code -- every kProbePeriod and
/// keeps the time of each run. The probe on a load thread's CPU runs
/// interleaved with that thread's operations, so when the host slows that
/// CPU down, the probe slows down with them. The probes start before any
/// other thread, so each allocates from a malloc arena of its own and the
/// state of the benchmark's heap cannot change the kernel's speed.
class SpeedProbes {
 public:
  SpeedProbes();
  ~SpeedProbes();
  SpeedProbes(const SpeedProbes&) = delete;
  SpeedProbes& operator=(const SpeedProbes&) = delete;

  /// The factor that brings work done on `cpu` over [start, end] to the
  /// reference host: kReferenceProbeMs over the mean probe time on that CPU
  /// in the interval, widened to at least kMinProbeWindow around its middle,
  /// to the power kProbeExponent. 1 when no probe ran there.
  double Scale(int cpu, Clock::time_point start, Clock::time_point end) const;
  /// The median of every probe time so far, on every CPU, in milliseconds.
  double MedianProbeMillis() const;

 private:
  struct Probe;
  std::vector<std::unique_ptr<Probe>> probes_;
};

/// The probe kernel's time on the host the baseline was taken on, in a
/// quiet stretch. Times are reported as they would be on a host where the
/// kernel takes this long.
constexpr double kReferenceProbeMs = 0.4;
/// Quarry's work slows down more than the probe when the host does: the
/// log of an operation's time against the log of the probe time beside it
/// has slopes of 1.0 to 1.5 by workload, and 1.4 steadies them best
/// (README.md, "Host-speed calibration").
constexpr double kProbeExponent = 1.4;
constexpr auto kProbePeriod = std::chrono::milliseconds(10);
/// Operations shorter than this are scaled by the probes around them.
constexpr auto kMinProbeWindow = std::chrono::milliseconds(200);

/// Fisher-Yates shuffle driven by the repository's deterministic PRNG, so an
/// operation order depends on the seed alone.
template <typename T>
void Shuffle(std::vector<T>* items, Prng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1],
              (*items)[static_cast<size_t>(rng->Uniform(0, i - 1))]);
  }
}

/// A primary operation that succeeded: when it ran and on which CPU, the
/// CPU time the issuing thread spent inside it, in milliseconds, and its
/// kind (the query template on olap_read, the event's place in the cycle on
/// design_churn; 0 elsewhere).
struct Op {
  Clock::time_point start;
  Clock::time_point end;
  int cpu = 0;
  double cpu_millis = 0;
  size_t kind = 0;

  double millis() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

/// \brief One measured window: the workload's primary operations plus every
/// check made on its outputs. Thread-safe; every workload records into it
/// from its load threads.
class Phase {
 public:
  /// A primary operation the calling thread ran from `start` to `end`.
  void AddOp(Clock::time_point start, Clock::time_point end,
             double cpu_millis, size_t kind = 0);
  /// Any attempted operation or output check (primary or not).
  void Attempt(int64_t n = 1);
  /// A failed operation or check; `what` names it for the report.
  void Fail(std::string what);
  /// A published warehouse generation (or ETL target) fingerprint, in order.
  void AddFingerprint(uint64_t fingerprint);
  /// The latency of an operation beside the primary ones (the analysts'
  /// queries beside the refreshes, the separate S2b flows), by stream name;
  /// reported on the detail line only.
  void AddSecondary(const std::string& stream, double millis);
  /// A named figure for the detail line; the last value set wins.
  void SetDetail(const std::string& name, double value);

  /// The primary operations, in completion order.
  std::vector<Op> ops() const;
  int64_t attempted() const;
  std::vector<std::string> failures() const;
  std::vector<uint64_t> fingerprints() const;
  std::map<std::string, std::vector<double>> secondary() const;
  std::map<std::string, double> details() const;

 private:
  mutable std::mutex mu_;
  std::vector<Op> ops_;
  int64_t attempted_ = 0;
  std::vector<std::string> failures_;
  std::vector<uint64_t> fingerprints_;
  std::map<std::string, std::vector<double>> secondary_;
  std::map<std::string, double> details_;
};

/// \brief The per-layer series of a traced run, by per_layer metric name.
/// Filled from the spans the run recorded (AddSpanSamples) and from what the
/// public calls return (reports, profiles, store statistics). Thread-safe.
class LayerSamples {
 public:
  void Add(const std::string& series, double value);
  std::vector<double> Get(const std::string& series) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

/// A Quarry over `source` with the TPC-H ontology and mappings and the
/// product defaults (QuarryConfig{}).
Result<std::unique_ptr<core::Quarry>> CreateTpchQuarry(
    const storage::Database* source);

/// The live generations and active pins of `store`.
void SampleStore(const storage::GenerationStore& store,
                 LayerSamples* samples);
/// SampleStore, plus the rows of the current generation and, on a durable
/// store, the bytes per row it takes on disk.
void SamplePublished(const storage::GenerationStore& store,
                     LayerSamples* samples);

/// Reads the spans obs::TraceRecorder holds -- the benchmark's own
/// "bench.*" spans around each entry point and the library's spans inside
/// it -- rebuilds each thread's span tree, and adds the span-derived
/// per-layer series: self and total times per layer, per-operator ETL time
/// and input rows per flow.
void AddSpanSamples(LayerSamples* samples);

/// \brief One benchmark workload. Main calls Setup() once per set-up (the
/// window runs on the last one's state), then Run() for the measured
/// window, then Check() for the output checks made after the window.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's state from scratch, dropping any earlier state.
  /// `samples` is null outside the traced half.
  virtual Status Setup(int index, LayerSamples* samples) = 0;
  /// Runs operations until `deadline`, finishing the unit of work in
  /// progress: a permutation of the query templates, a refresh, a cycle of
  /// design events, a run of the unified flow.
  virtual void Run(Clock::time_point deadline, LayerSamples* samples,
                   Phase* phase) = 0;
  virtual void Check(LayerSamples* samples, Phase* phase) = 0;
};

/// Null for an unknown name. `dir` is a private scratch directory.
std::unique_ptr<Workload> MakeWorkload(const Options& options,
                                       const std::string& dir);

std::unique_ptr<Workload> MakeOlapRead(const Options& options);
std::unique_ptr<Workload> MakeOlapRefresh(const Options& options,
                                          const std::string& dir);
std::unique_ptr<Workload> MakeDesignChurn(const Options& options,
                                          const std::string& dir);
std::unique_ptr<Workload> MakeEtlS2b(const Options& options);

}  // namespace quarry::bench

#endif  // QUARRY_BENCH_HARNESS_H_
