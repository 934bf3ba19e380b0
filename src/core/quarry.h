#ifndef QUARRY_CORE_QUARRY_H_
#define QUARRY_CORE_QUARRY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/exec_context.h"
#include "common/result.h"
#include "core/admission.h"
#include "core/metadata_repository.h"
#include "core/tenant.h"
#include "core/telemetry.h"
#include "deployer/deployer.h"
#include "integrator/design_integrator.h"
#include "interpreter/interpreter.h"
#include "obs/profile.h"
#include "olap/cube_query.h"
#include "ontology/mapping.h"
#include "ontology/ontology.h"
#include "requirements/elicitor.h"
#include "requirements/requirement.h"
#include "storage/database.h"
#include "storage/generation_store.h"

namespace quarry::obs {
class Counter;
class Histogram;
}  // namespace quarry::obs

namespace quarry::core {

/// Knobs of the snapshot-isolated serving path (docs/ROBUSTNESS.md §9).
struct ServingOptions {
  /// Query lane in front of SubmitQuery — its own quota, so OLAP reads are
  /// never starved (or flooded) by the design/deploy lane. The Quarry
  /// constructor additionally turns on derive_queue_timeout_from_deadline
  /// and deadline_eviction for this lane (docs/ROBUSTNESS.md §11): a query
  /// carrying a deadline never waits past the point where finishing on time
  /// is possible.
  AdmissionOptions query_admission{/*max_in_flight=*/8,
                                   /*max_queue_depth=*/32,
                                   /*queue_timeout_millis=*/-1.0,
                                   /*lane=*/""};
  /// Bounded admit-or-shed side quota for stale reads: when the query lane
  /// sheds under overload while a publish is pending, a caller that opted
  /// in (QueryOptions::allow_stale) may still be served generation N-1
  /// through this lane instead of being turned away.
  AdmissionOptions stale_admission{/*max_in_flight=*/2,
                                   /*max_queue_depth=*/0,
                                   /*queue_timeout_millis=*/-1.0,
                                   /*lane=*/""};
};

/// Configuration of a Quarry instance.
struct QuarryConfig {
  integrator::MdIntegrationOptions md_options;
  etl::CostModelConfig etl_cost;
  std::string database_name = "demo";
  /// Gate in front of the design-mutating entry points — the Submit*
  /// calls and DeployServing / RefreshServing alike (docs/ROBUSTNESS.md §7,
  /// §9.4).
  AdmissionOptions admission;
  /// How ETL runs execute: every run goes through the chunk kernels
  /// (DESIGN.md §8) with `chunk_size` rows per chunk; `max_workers > 1`
  /// runs the independent nodes of deploy/refresh flows concurrently
  /// (docs/ROBUSTNESS.md §8). Applied to RefreshServing always, and to
  /// DeployServing unless the caller's DeployOptions ask for parallelism
  /// themselves.
  etl::ExecOptions etl_exec;
  /// Snapshot-isolated serving (docs/ROBUSTNESS.md §9).
  ServingOptions serving;
};

/// Per-query knobs of Quarry::SubmitQuery.
struct QueryOptions {
  /// Degraded mode under overload: when the query lane sheds while a
  /// refresh/deploy is building the next generation, serve the *previous*
  /// generation through the bounded stale lane instead of failing with
  /// kOverloaded. The result is marked stale and counted in
  /// quarry_serving_queries_total{mode="stale"}.
  bool allow_stale = false;
  /// Collect the EXPLAIN ANALYZE profile tree into QueryResult::profile.
  /// On by default — BENCH_observability.json puts the cost under 2% — but
  /// latency-critical callers can opt out.
  bool collect_profile = true;
};

/// Outcome of Quarry::SubmitQuery: the dataset plus exactly which
/// published warehouse generation produced it, attributed to the request
/// id the query ran under.
struct QueryResult {
  etl::Dataset data;
  uint64_t generation = 0;
  bool stale = false;  ///< Served from generation N-1 via the stale lane.
  uint64_t request_id = 0;
  /// EXPLAIN ANALYZE profile (QueryOptions::collect_profile): per-plan-node
  /// rows/time/attempts plus admission wait, lane and generation served.
  /// profile.ToText() / ToJson() render it (docs/OBSERVABILITY.md).
  obs::RequestProfile profile;
};

/// What startup recovery did, across both durable substrates: the docstore
/// holding the design metadata (docs/ROBUSTNESS.md §6) and the generation
/// store holding the serving warehouse (§10). All-zero for fresh instances.
struct RecoveryReport {
  docstore::RecoveryStats metadata;
  storage::persist::GenerationRecoveryStats warehouse;

  std::string ToString() const;
};

/// \brief The end-to-end Quarry system (paper Fig. 1): wires together the
/// Requirements Elicitor, Requirements Interpreter, Design Integrator,
/// Design Deployer and the Communication & Metadata layer.
///
/// Lifecycle:
///   1. Create() over a domain ontology + source mappings + source data.
///   2. elicitor() assists users in phrasing information requirements.
///   3. AddRequirement() interprets the requirement into partial designs,
///      integrates them into the unified design (validating soundness and
///      satisfiability), and records every artifact (xRQ / partial and
///      unified xMD + xLM) in the metadata repository.
///   4. RemoveRequirement() / ChangeRequirement() accommodate evolution.
///   5. DeployServing() emits SQL + ktr, creates the DW star schema, runs
///      the unified ETL to populate it and publishes the result as the next
///      warehouse generation; RefreshServing() does the same to pick up
///      source changes.
class Quarry {
 public:
  /// Validates the mapping against the ontology, snapshots source table
  /// statistics for the cost models, registers the built-in exporters
  /// ("sql", "pdi", "xmd", "xlm") and stores ontology + mappings in the
  /// repository. `source` must outlive the instance.
  static Result<std::unique_ptr<Quarry>> Create(
      ontology::Ontology onto, ontology::SourceMapping mapping,
      const storage::Database* source, QuarryConfig config = {});

  /// Process-wide tracing + metrics surfaces (docs/OBSERVABILITY.md):
  /// Quarry::Telemetry().StartTracing() before a run,
  /// Quarry::Telemetry().WriteTo(dir) to export trace.json / metrics.prom /
  /// metrics.json afterwards. Static — telemetry spans every instance.
  static TelemetryHandle Telemetry() { return core::Telemetry(); }

  const ontology::Ontology& ontology() const { return *onto_; }
  const ontology::SourceMapping& mapping() const { return *mapping_; }
  req::Elicitor& elicitor() { return *elicitor_; }
  MetadataRepository& repository() { return repository_; }
  const MetadataRepository& repository() const { return repository_; }

  /// Makes the metadata repository crash-safe on `dir`
  /// (docs/ROBUSTNESS.md §6): the current state is checkpointed and every
  /// subsequent artifact write (AddRequirement, deployment records, ...)
  /// is WAL-logged with an fsync before it is acknowledged.
  Status EnableDurability(const std::string& dir);

  /// Makes the serving warehouse crash-safe on `dir`
  /// (docs/ROBUSTNESS.md §10): runs warehouse recovery — republishing the
  /// newest intact on-disk generation so SubmitQuery serves immediately at
  /// cold start, without waiting on a full ETL rebuild — then commits every
  /// later DeployServing / RefreshServing publish durably (per-table
  /// CRC-checksummed segments + MANIFEST.json, two-phase). The MD-schema
  /// annex travels with each generation as its serialized xMD document.
  /// Recovery results land in recovery_report().warehouse.
  Status EnableServingDurability(const std::string& dir);

  /// What startup recovery did when this instance was restored from
  /// durable directories (all-zero for fresh instances): metadata recovery
  /// from LoadSession / OpenDurableSession, warehouse recovery from
  /// EnableServingDurability.
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  /// Compat accessor for the metadata half of recovery_report() — the
  /// pre-§10 surface, kept so existing callers keep compiling.
  const docstore::RecoveryStats& recovery_stats() const {
    return recovery_report_.metadata;
  }
  void set_recovery_stats(docstore::RecoveryStats stats) {
    recovery_report_.metadata = std::move(stats);
  }

  const md::MdSchema& schema() const { return design_->schema(); }
  const etl::Flow& flow() const { return design_->flow(); }
  const std::map<std::string, req::InformationRequirement>& requirements()
      const {
    return design_->requirements();
  }

  /// Interprets + integrates a requirement; stores xRQ, the partial xMD and
  /// xLM, and refreshes the unified xMD/xLM in the repository. `ctx`
  /// (nullable) carries the request's cancellation token / deadline /
  /// budgets through the interpreter and integrator.
  Result<integrator::IntegrationOutcome> AddRequirement(
      const req::InformationRequirement& ir, const ExecContext* ctx = nullptr);

  /// Parses the textual "ANALYZE ... MEASURE ... BY ... WHERE ..." notation
  /// (req::ParseRequirementQuery) and adds the resulting requirement.
  Result<integrator::IntegrationOutcome> AddRequirementFromQuery(
      std::string_view query_text, const ExecContext* ctx = nullptr);

  /// Removes a requirement and prunes the unified design.
  Status RemoveRequirement(const std::string& ir_id);

  /// Replaces an integrated requirement with a new definition. Atomic: when
  /// the new definition fails to integrate, the old one stays in place.
  Result<integrator::IntegrationOutcome> ChangeRequirement(
      const req::InformationRequirement& ir, const ExecContext* ctx = nullptr);

  /// The design-lane gate in front of the Submit* entry points and
  /// DeployServing / RefreshServing. Exposed so callers can observe load
  /// (in_flight / queue_depth) or share it across instances.
  AdmissionController& admission() { return *admission_; }

  /// Multi-tenant quota gate in front of every admission lane
  /// (docs/ROBUSTNESS.md §11). Register tenants (RegisterTenant below) and
  /// stamp ExecContext::set_tenant on requests; untenanted requests pass
  /// through ungated.
  TenantRegistry& tenants() { return tenants_; }
  const TenantRegistry& tenants() const { return tenants_; }

  /// Convenience forwarder for tenants().Register.
  Status RegisterTenant(const std::string& id, const TenantQuota& quota) {
    return tenants_.Register(id, quota);
  }

  // --- admission-gated entry points (docs/ROBUSTNESS.md §7) ---------------
  //
  // Each Submit* (and DeployServing / RefreshServing below) first passes the
  // tenant gate and the design-lane admission controller — waiting FIFO for
  // a slot, or failing fast with kOverloaded / kDeadlineExceeded /
  // kCancelled under load — then runs the corresponding operation with
  // `ctx` attached. Design mutations are serialized internally, so
  // concurrent callers are safe; the admission gate bounds how many of them
  // pile up.

  Result<integrator::IntegrationOutcome> SubmitRequirement(
      const req::InformationRequirement& ir, const ExecContext* ctx = nullptr);

  Result<integrator::IntegrationOutcome> SubmitRequirementFromQuery(
      std::string_view query_text, const ExecContext* ctx = nullptr);

  Status SubmitRemoveRequirement(const std::string& ir_id,
                                 const ExecContext* ctx = nullptr);

  // --- snapshot-isolated serving (docs/ROBUSTNESS.md §9) ------------------
  //
  // The warehouse is a GenerationStore of immutable published generations.
  // Deploy / refresh build the next generation off to the side and
  // atomically publish it on success; queries pin one generation for their
  // whole run, so a concurrent refresh can never tear a result. A mid-build
  // fault discards the scratch — rollback is O(1), never a full-warehouse
  // copy-back.

  /// The generation store behind the serving path. Read-only access for
  /// observation (current_generation, stats, Acquire for ad-hoc pins);
  /// publishing goes through DeployServing / RefreshServing only.
  storage::GenerationStore& warehouse() { return warehouse_; }
  const storage::GenerationStore& warehouse() const { return warehouse_; }

  /// Deploys the unified design as the next warehouse generation: builds an
  /// empty scratch database off to the side (DeployTransactional: per-node
  /// ETL retries, rollback or best-effort partial keep, a deployment record
  /// in the metadata repository), and on success — or a best-effort
  /// partial — publishes it together with a snapshot of the MD schema. On
  /// failure the scratch is simply discarded: the currently-served
  /// generation is untouched and readers never observe intermediate state.
  /// The publish step itself is a fault site ("storage.generation.publish");
  /// a publish fault reports stage "publish", discards the scratch and
  /// restores the metadata repository to its pre-deploy state.
  /// `options.database_name` and `options.metadata` are overridden with
  /// this instance's configuration and repository store; `ctx`, when set,
  /// overrides `options.context`. Admission-gated on the design lane.
  Result<deployer::DeploymentOutcome> DeployServing(
      deployer::DeployOptions options = {}, const ExecContext* ctx = nullptr);

  /// Refreshes the serving warehouse: rebuilds the current design over the
  /// current source exactly as DeployServing does (default DeployOptions,
  /// `ctx` as the context) and publishes it as generation N+1, so a
  /// refreshed warehouse equals a fresh deploy's and holds no table of a
  /// removed requirement. Like a deploy it writes the "complete" deployment
  /// record (in a durable session one metadata WAL append per refresh) and
  /// takes it back on a publish fault. Returns the ETL report, or the
  /// failure's cause (its status code kept) when nothing was published.
  /// Requires a prior successful DeployServing (NotFound otherwise).
  /// Queries keep serving generation N throughout. Admission-gated on the
  /// design lane.
  Result<etl::ExecutionReport> RefreshServing(const ExecContext* ctx = nullptr);

  /// Runs a cube query against a pinned warehouse generation through the
  /// query admission lane. The pin guarantees the generation (tables and
  /// the MD schema snapshot it was published with) stays alive and
  /// immutable for the whole query even if refreshes publish and retire
  /// generations concurrently. Under overload (query lane sheds) with
  /// `opts.allow_stale` set while a build is in flight, degrades to serving
  /// the previous generation through the bounded stale lane; if that is
  /// unavailable too, the original kOverloaded error surfaces. `ctx` is
  /// polled throughout query execution (docs/ROBUSTNESS.md §7).
  Result<QueryResult> SubmitQuery(const olap::CubeQuery& query,
                                  const QueryOptions& opts = {},
                                  const ExecContext* ctx = nullptr);

  /// The query-lane admission controller (observation / sharing).
  AdmissionController& query_admission() { return *query_admission_; }

  /// Renders the unified MD schema via a registered exporter ("sql","xmd").
  Result<std::string> ExportSchema(const std::string& format) const;

  /// Renders the unified ETL flow via a registered exporter ("pdi","xlm").
  Result<std::string> ExportFlow(const std::string& format) const;

 private:
  Quarry(ontology::Ontology onto, ontology::SourceMapping mapping,
         const storage::Database* source, QuarryConfig config);

  Status RefreshUnifiedArtifacts();

  /// Stores a requirement's xRQ and partial xMD/xLM and refreshes the
  /// unified xMD/xLM in the repository.
  Status StoreRequirementArtifacts(const req::InformationRequirement& ir,
                                   const interpreter::PartialDesign& partial);

  /// Attribution of one entry-point invocation (request id, metrics, the
  /// event-log record); defined in quarry.cc.
  class RequestScope;

  /// The admission lane a gated entry point waits in.
  enum class Lane { kDesign, kQuery };

  /// Serves a request its lane refused (SubmitQuery's stale lane), or
  /// returns the refusal.
  template <typename R>
  using ShedFallback =
      std::function<R(const ExecContext*, RequestScope*, const Status&)>;

  /// The one gate every public entry point goes through: opens the request
  /// scope of `kind`, takes the tenant lease and a `lane` ticket (recording
  /// its wait), runs `body(ctx, &scope)` — under submit_mu_ on the design
  /// lane — and completes the lease and the scope with the same effective
  /// status. When the lane sheds, `on_shed` gets one chance to serve the
  /// request anyway. R is Status or a Result.
  template <typename R, typename Body>
  R Gated(const char* kind, Lane lane, const ExecContext* ctx, Body body,
          const ShedFallback<R>& on_shed = nullptr);

  /// Un-gated build-and-publish body of DeployServing and RefreshServing:
  /// the caller holds submit_mu_ and has passed the design-lane gate.
  Result<deployer::DeploymentOutcome> DeployServingInternal(
      deployer::DeployOptions options);

  /// Serves `query` from a pinned generation. `stale` selects which
  /// generation to pin (previous vs current) and how to label the result.
  /// `admission_wait_micros` (the time spent in the admission queue) and
  /// `collect_profile` feed the result's request profile.
  Result<QueryResult> ExecutePinnedQuery(const olap::CubeQuery& query,
                                         bool stale, const ExecContext* ctx,
                                         bool collect_profile,
                                         double admission_wait_micros);

  std::unique_ptr<ontology::Ontology> onto_;
  std::unique_ptr<ontology::SourceMapping> mapping_;
  const storage::Database* source_;
  QuarryConfig config_;
  std::unique_ptr<req::Elicitor> elicitor_;
  std::unique_ptr<interpreter::Interpreter> interpreter_;
  std::unique_ptr<integrator::DesignIntegrator> design_;
  MetadataRepository repository_;
  RecoveryReport recovery_report_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<AdmissionController> query_admission_;
  std::unique_ptr<AdmissionController> stale_admission_;
  /// Per-tenant quotas/priorities/breakers checked before any lane (§11).
  TenantRegistry tenants_;
  /// Serializes the bodies of design-lane calls: the engine itself is
  /// single-writer, the admission gate only bounds how many requests wait
  /// for it.
  std::mutex submit_mu_;
  /// Published warehouse generations of the serving path (§9).
  storage::GenerationStore warehouse_;
  /// Builds currently constructing the next generation — "a publish is
  /// pending", the precondition for degrading a shed query to a stale read.
  std::atomic<int> serving_builds_in_flight_{0};
  // Serving metrics (process-lifetime registry pointers).
  obs::Counter* queries_fresh_total_ = nullptr;
  obs::Counter* queries_stale_total_ = nullptr;
  obs::Histogram* query_micros_ = nullptr;
};

}  // namespace quarry::core

#endif  // QUARRY_CORE_QUARRY_H_
