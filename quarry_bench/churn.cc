// design_churn: the paper's "accommodating changes" scenario. Requirements
// are added, changed and removed on a durable design, and every event is
// deployed to a new serving generation.

#include <filesystem>
#include <iterator>
#include <set>
#include <utility>

#include "core/quarry.h"
#include "datagen/tpch.h"
#include "harness.h"
#include "obs/trace.h"
#include "requirements/workload.h"

namespace quarry::bench {

namespace {

constexpr double kScaleFactor = 0.01;
constexpr double kSmokeScaleFactor = 0.001;

// What a change event swaps in as the requirement's measure: numeric
// Lineitem expressions, so a change rewrites the flow without moving the
// fact's grain.
const char* const kChangeMeasures[] = {
    "Lineitem.l_quantity",
    "Lineitem.l_extendedprice",
    "Lineitem.l_extendedprice * Lineitem.l_tax",
    "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
    "Lineitem.l_extendedprice * (1 - Lineitem.l_discount) * "
    "(1 + Lineitem.l_tax)",
};

enum class EventKind { kAdd, kChange, kRemove };

const char* EventName(EventKind kind) {
  switch (kind) {
    case EventKind::kAdd: return "SubmitRequirement";
    case EventKind::kChange: return "ChangeRequirement";
    case EventKind::kRemove: return "SubmitRemoveRequirement";
  }
  return "?";
}

struct Event {
  EventKind kind;
  req::InformationRequirement ir;
};

Status RecreateDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("create " + dir + ": " + ec.message());
  return Status::OK();
}

/// Four base requirements of an eight-requirement pool stay deployed. A
/// cycle walks the other four in pool order, in pairs (a, b): add a, add b,
/// change a, remove a, change b, remove b -- 12 events that end where they
/// began, each change with a seeded new measure. Each event is followed by
/// DeployServing; the two together are the measured operation. An untraced
/// window runs whole cycles, at least one, and starts another only when the
/// last one would fit before the deadline again, so every run measures the
/// same mix of requirements and so of deploy costs; for the same reason the
/// order is fixed rather than seeded. A traced run, whose per-layer numbers
/// have no bound, stops each half at its deadline.
class DesignChurn : public Workload {
 public:
  DesignChurn(const Options& options, std::string dir)
      : options_(options), dir_(std::move(dir)) {}

  Status Setup(int index, LayerSamples* samples) override {
    quarry_.reset();  // it points into source_
    source_ = std::make_unique<storage::Database>("tpch");
    const auto start = Clock::now();
    QUARRY_RETURN_NOT_OK(datagen::PopulateTpch(
        source_.get(),
        {options_.smoke ? kSmokeScaleFactor : kScaleFactor, kDesignSeed}));
    if (samples != nullptr) {
      samples->Add("datagen.populate_s", MillisSince(start) / 1e3);
    }
    QUARRY_ASSIGN_OR_RETURN(quarry_, CreateTpchQuarry(source_.get()));
    QUARRY_RETURN_NOT_OK(quarry_->RegisterTenant("designer", {}));
    metadata_dir_ = dir_ + "/metadata-" + std::to_string(index);
    const std::string warehouse_dir =
        dir_ + "/warehouse-" + std::to_string(index);
    QUARRY_RETURN_NOT_OK(RecreateDir(metadata_dir_));
    QUARRY_RETURN_NOT_OK(RecreateDir(warehouse_dir));
    QUARRY_RETURN_NOT_OK(quarry_->EnableDurability(metadata_dir_));
    QUARRY_RETURN_NOT_OK(quarry_->EnableServingDurability(warehouse_dir));

    req::WorkloadConfig config;
    config.num_requirements = 8;
    config.overlap = 0.5;
    config.seed = kDesignSeed;
    std::vector<req::InformationRequirement> pool =
        req::GenerateTpchWorkload(config);
    active_.clear();
    for (int i = 0; i < 4; ++i) {
      QUARRY_RETURN_NOT_OK(quarry_->SubmitRequirement(pool[i]).status());
      active_.insert(pool[i].id);
    }
    QUARRY_ASSIGN_OR_RETURN(deployer::DeploymentOutcome deployed,
                            quarry_->DeployServing());
    if (!deployed.success) {
      return deployed.failure ? deployed.failure->cause
                              : Status::Internal("deploy failed");
    }
    MakeScript(std::vector<req::InformationRequirement>(pool.begin() + 4,
                                                        pool.end()));
    events_ = 0;
    return CheckPublished();  // also the warm-up pass
  }

  void Run(Clock::time_point deadline, LayerSamples* samples,
           Phase* phase) override {
    const storage::GenerationStore& store = quarry_->warehouse();
    phase->AddFingerprint(
        store.PublishedFingerprint(store.current_generation()).value_or(0));
    Clock::duration cycle{};
    do {
      const auto start = Clock::now();
      for (const Event& event : script_) {
        if (options_.trace && Clock::now() >= deadline) return;
        Apply(events_++, event, samples, phase);
      }
      cycle = Clock::now() - start;
    } while (Clock::now() + cycle <= deadline);
  }

  void Check(LayerSamples* /*samples*/, Phase* /*phase*/) override {}

 private:
  void MakeScript(const std::vector<req::InformationRequirement>& others) {
    Prng rng(options_.seed);
    auto changed = [&rng](req::InformationRequirement ir) {
      ir.measures.front().expression = kChangeMeasures[rng.Uniform(
          0, static_cast<int64_t>(std::size(kChangeMeasures)) - 1)];
      return ir;
    };
    script_.clear();
    for (size_t a = 0; a + 1 < others.size(); a += 2) {
      const req::InformationRequirement& first = others[a];
      const req::InformationRequirement& second = others[a + 1];
      script_.push_back({EventKind::kAdd, first});
      script_.push_back({EventKind::kAdd, second});
      script_.push_back({EventKind::kChange, changed(first)});
      script_.push_back({EventKind::kRemove, first});
      script_.push_back({EventKind::kChange, changed(second)});
      script_.push_back({EventKind::kRemove, second});
    }
  }

  void Apply(size_t index, const Event& event, LayerSamples* samples,
             Phase* phase) {
    const std::string what = "event " + std::to_string(index) + " " +
                             EventName(event.kind) + "(" + event.ir.id + ")";
    phase->Attempt();
    const int64_t metadata_before =
        samples != nullptr ? DirBytes(metadata_dir_) : 0;
    std::optional<integrator::IntegrationOutcome> integrated;
    const double cpu = ThreadCpuMillis();
    const auto start = Clock::now();
    Result<uint64_t> generation = ApplyAndDeploy(event, &integrated);
    const auto end = Clock::now();
    const double cpu_millis = ThreadCpuMillis() - cpu;
    if (!generation.ok()) {
      phase->Fail(what + ": " + generation.status().ToString());
      // Follow the design wherever the failure left it.
      active_.clear();
      for (const auto& [id, unused] : quarry_->requirements()) {
        active_.insert(id);
      }
      return;
    }
    phase->AddOp(start, end, cpu_millis, index % script_.size());
    if (event.kind == EventKind::kAdd) active_.insert(event.ir.id);
    if (event.kind == EventKind::kRemove) active_.erase(event.ir.id);
    const storage::GenerationStore& store = quarry_->warehouse();
    phase->AddFingerprint(store.PublishedFingerprint(*generation).value_or(0));
    if (samples != nullptr) {
      Sample(metadata_before, integrated, samples);
    }
    // Untimed: the published schema covers exactly the active requirements
    // and one query per fact succeeds.
    const size_t facts = quarry_->schema().facts().size();
    phase->Attempt(1 + static_cast<int64_t>(facts));
    if (Status checked = CheckPublished(); !checked.ok()) {
      phase->Fail(what + ": " + checked.ToString());
    }
  }

  /// The event through its entry point, then DeployServing. Returns the
  /// published generation.
  Result<uint64_t> ApplyAndDeploy(
      const Event& event,
      std::optional<integrator::IntegrationOutcome>* integrated) {
    ExecContext ctx;
    ctx.set_tenant("designer");
    switch (event.kind) {
      case EventKind::kAdd: {
        QUARRY_SPAN("bench.SubmitRequirement");
        QUARRY_ASSIGN_OR_RETURN(*integrated,
                                quarry_->SubmitRequirement(event.ir, &ctx));
        break;
      }
      case EventKind::kChange: {
        QUARRY_SPAN("bench.ChangeRequirement");
        QUARRY_ASSIGN_OR_RETURN(*integrated,
                                quarry_->ChangeRequirement(event.ir, &ctx));
        break;
      }
      case EventKind::kRemove: {
        QUARRY_SPAN("bench.SubmitRemoveRequirement");
        QUARRY_RETURN_NOT_OK(
            quarry_->SubmitRemoveRequirement(event.ir.id, &ctx));
        break;
      }
    }
    ExecContext deploy_ctx;
    deploy_ctx.set_tenant("designer");
    QUARRY_SPAN("bench.DeployServing");
    QUARRY_ASSIGN_OR_RETURN(deployer::DeploymentOutcome deployed,
                            quarry_->DeployServing({}, &deploy_ctx));
    if (!deployed.success) {
      return deployed.failure ? deployed.failure->cause
                              : Status::Internal("deploy failed");
    }
    return deployed.published_generation;
  }

  void Sample(int64_t metadata_before,
              const std::optional<integrator::IntegrationOutcome>& integrated,
              LayerSamples* samples) {
    samples->Add("docstore.metadata_bytes_per_event",
                 static_cast<double>(DirBytes(metadata_dir_) -
                                     metadata_before));
    if (integrated.has_value()) {
      const int touched =
          integrated->etl.nodes_reused + integrated->etl.nodes_added;
      if (touched > 0) {
        samples->Add("integrator.etl_nodes_reused_frac",
                     static_cast<double>(integrated->etl.nodes_reused) /
                         touched);
      }
    }
    SamplePublished(quarry_->warehouse(), samples);
  }

  /// The published generation's schema covers exactly the active
  /// requirements, and one query per fact (its first grain attribute, every
  /// measure summed) succeeds. Empty facts are not queried: a query over
  /// one fails (README.md, known findings).
  Status CheckPublished() {
    QUARRY_ASSIGN_OR_RETURN(storage::GenerationStore::Pin pin,
                            quarry_->warehouse().Acquire());
    auto schema = std::static_pointer_cast<const md::MdSchema>(pin.annex());
    if (schema == nullptr) return Status::Internal("generation has no schema");
    if (schema->RequirementIds() != active_) {
      return Status::Internal(
          "published schema does not cover exactly the active requirements");
    }
    for (const md::Fact& fact : schema->facts()) {
      QUARRY_ASSIGN_OR_RETURN(const storage::Table* table,
                              pin.db().GetTable(fact.name));
      if (table->num_rows() == 0) continue;
      olap::CubeQuery query;
      query.fact = fact.name;
      if (fact.dimension_refs.empty()) {
        return Status::Internal("fact " + fact.name + " has no dimensions");
      }
      const md::DimensionRef& ref = fact.dimension_refs.front();
      QUARRY_ASSIGN_OR_RETURN(const md::Dimension* dim,
                              schema->GetDimension(ref.dimension));
      const md::Level* level = dim->FindLevel(ref.level);
      if (level == nullptr || level->attributes.empty()) {
        return Status::Internal("fact " + fact.name + " has no grain level");
      }
      query.group_by = {level->attributes.front().name};
      for (const md::Measure& m : fact.measures) {
        query.measures.push_back({m.name, md::AggFunc::kSum, ""});
      }
      QUARRY_RETURN_NOT_OK(quarry_->SubmitQuery(query).status().WithContext(
          "query on " + fact.name));
    }
    return Status::OK();
  }

  const Options options_;
  const std::string dir_;
  std::unique_ptr<storage::Database> source_;
  std::unique_ptr<core::Quarry> quarry_;
  std::string metadata_dir_;
  std::vector<Event> script_;  ///< One cycle.
  size_t events_ = 0;          ///< Events applied since set-up.
  std::set<std::string> active_;
};

}  // namespace

std::unique_ptr<Workload> MakeDesignChurn(const Options& options,
                                          const std::string& dir) {
  return std::make_unique<DesignChurn>(options, dir);
}

}  // namespace quarry::bench
