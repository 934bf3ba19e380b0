// etl_s2b: the paper's S2b scenario -- one integrated ETL flow against the
// per-requirement flows it replaces, on the ETL engine alone (no deployer,
// generation store or core).

#include <map>
#include <optional>
#include <vector>

#include "datagen/tpch.h"
#include "etl/exec/executor.h"
#include "harness.h"
#include "integrator/etl_integrator.h"
#include "interpreter/interpreter.h"
#include "obs/trace.h"
#include "ontology/tpch_ontology.h"
#include "requirements/workload.h"

namespace quarry::bench {

namespace {

constexpr double kScaleFactor = 0.01;
constexpr double kSmokeScaleFactor = 0.001;

/// One run of a set of flows into a fresh target.
struct FlowsRun {
  Status status;
  Clock::time_point start;
  Clock::time_point end;
  double millis = 0;
  double cpu_millis = 0;
  int64_t rows_processed = 0;
  uint64_t fingerprint = 0;
};

/// Setup interprets eight requirements (GenerateTpchWorkload N=8, overlap
/// 0.8) and integrates their flows with EtlIntegrator. The window runs the
/// unified flow through etl::Executor::Run into a fresh Database, over and
/// over: the measured operation. After it the eight separate flows run
/// twice the same way, in an order --seed sets: the "separate" stream of
/// the detail line and the reference the unified flow must beat.
class EtlS2b : public Workload {
 public:
  explicit EtlS2b(const Options& options) : options_(options) {}

  Status Setup(int /*index*/, LayerSamples* samples) override {
    source_ = std::make_unique<storage::Database>("tpch");
    const auto start = Clock::now();
    QUARRY_RETURN_NOT_OK(datagen::PopulateTpch(
        source_.get(),
        {options_.smoke ? kSmokeScaleFactor : kScaleFactor, kDesignSeed}));
    if (samples != nullptr) {
      samples->Add("datagen.populate_s", MillisSince(start) / 1e3);
    }
    etl::TableColumns columns;
    std::map<std::string, int64_t> rows;
    for (const std::string& name : source_->TableNames()) {
      const storage::Table& table = **source_->GetTable(name);
      for (const storage::Column& c : table.schema().columns()) {
        columns[name].push_back(c.name);
      }
      rows[name] = static_cast<int64_t>(table.num_rows());
    }
    const ontology::Ontology onto = ontology::BuildTpchOntology();
    const ontology::SourceMapping mapping = ontology::BuildTpchMappings();
    interpreter::Interpreter interpreter(&onto, &mapping);
    req::WorkloadConfig pool;
    pool.num_requirements = 8;
    pool.overlap = 0.8;
    pool.seed = kDesignSeed;
    separate_.clear();
    for (const req::InformationRequirement& ir :
         req::GenerateTpchWorkload(pool)) {
      QUARRY_ASSIGN_OR_RETURN(interpreter::PartialDesign design,
                              interpreter.Interpret(ir));
      separate_.push_back(std::move(design.flow));
    }
    integrator::EtlIntegrator integrator(std::move(columns), std::move(rows));
    etl::Flow unified("unified");
    int reused = 0;
    int added = 0;
    for (const etl::Flow& flow : separate_) {
      QUARRY_ASSIGN_OR_RETURN(integrator::EtlIntegrationReport report,
                              integrator.Integrate(&unified, flow));
      reused += report.nodes_reused;
      added += report.nodes_added;
    }
    unified_.clear();
    unified_.push_back(std::move(unified));
    Prng rng(options_.seed);
    Shuffle(&separate_, &rng);
    if (samples != nullptr && reused + added > 0) {
      samples->Add("integrator.etl_nodes_reused_frac",
                   static_cast<double>(reused) / (reused + added));
    }
    // Warm-up run of the unified flow; its target is the reference every
    // later run reproduces.
    unified_reference_ = RunFlows(unified_);
    return unified_reference_.status;
  }

  void Run(Clock::time_point deadline, LayerSamples* /*samples*/,
           Phase* phase) override {
    while (Clock::now() < deadline) Unified(phase);
  }

  /// The separate flows must reproduce their first run, and the unified
  /// flow must process fewer rows than they do.
  void Check(LayerSamples* samples, Phase* phase) override {
    std::optional<FlowsRun> separate_reference;
    for (int i = 0; i < 2; ++i) {
      Separate(samples, phase, &separate_reference);
    }
    phase->Attempt();
    if (!separate_reference.has_value()) {
      phase->Fail("the separate flows never ran");
      return;
    }
    const int64_t unified = unified_reference_.rows_processed;
    const int64_t separate = separate_reference->rows_processed;
    if (unified >= separate) {
      phase->Fail("unified flow processed " + std::to_string(unified) +
                  " rows, the separate flows " + std::to_string(separate));
    }
    if (samples != nullptr && separate > 0) {
      samples->Add("integrator.rows_saved_frac",
                   1.0 - static_cast<double>(unified) /
                             static_cast<double>(separate));
    }
  }

 private:
  FlowsRun RunFlows(const std::vector<etl::Flow>& flows) const {
    FlowsRun run;
    storage::Database target("target");
    const double cpu = ThreadCpuMillis();
    const auto start = Clock::now();
    for (const etl::Flow& flow : flows) {
      Result<etl::ExecutionReport> report =
          etl::Executor(source_.get(), &target).Run(flow);
      if (!report.ok()) {
        run.status = report.status();
        return run;
      }
      run.rows_processed += report->rows_processed;
    }
    run.start = start;
    run.end = Clock::now();
    run.millis = std::chrono::duration<double, std::milli>(run.end - start).count();
    run.cpu_millis = ThreadCpuMillis() - cpu;
    run.fingerprint = target.Fingerprint();
    return run;
  }

  /// A run must succeed and reproduce the reference run's target and row
  /// count.
  bool Verify(const FlowsRun& run, const FlowsRun& reference,
              const char* what, Phase* phase) {
    phase->Attempt();
    if (!run.status.ok()) {
      phase->Fail(std::string(what) + " run: " + run.status.ToString());
      return false;
    }
    if (run.fingerprint != reference.fingerprint ||
        run.rows_processed != reference.rows_processed) {
      phase->Fail(std::string(what) + " run: target differs from the first");
    }
    return true;
  }

  void Unified(Phase* phase) {
    FlowsRun run;
    {
      QUARRY_SPAN("bench.UnifiedFlow");
      run = RunFlows(unified_);
    }
    if (!Verify(run, unified_reference_, "unified", phase)) return;
    phase->AddOp(run.start, run.end, run.cpu_millis);
    phase->AddFingerprint(run.fingerprint);
  }

  void Separate(LayerSamples* samples, Phase* phase,
                std::optional<FlowsRun>* reference) {
    FlowsRun run;
    {
      QUARRY_SPAN("bench.SeparateFlows");
      run = RunFlows(separate_);
    }
    if (run.status.ok() && !reference->has_value()) *reference = run;
    if (!Verify(run, reference->value_or(run), "separate", phase)) return;
    phase->AddSecondary("separate", run.millis);
    if (samples != nullptr) {
      samples->Add("etl.s2b_separate.total_ms", run.millis);
      samples->Add("etl.s2b_separate.rows_processed",
                   static_cast<double>(run.rows_processed));
    }
  }

  const Options options_;
  std::unique_ptr<storage::Database> source_;
  std::vector<etl::Flow> separate_;
  std::vector<etl::Flow> unified_;  ///< The one integrated flow.
  FlowsRun unified_reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeEtlS2b(const Options& options) {
  return std::make_unique<EtlS2b>(options);
}

}  // namespace quarry::bench
