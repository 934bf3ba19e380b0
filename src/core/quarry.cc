#include "core/quarry.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "deployer/pdi_generator.h"
#include "deployer/sql_generator.h"
#include "etl/xlm.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "requirements/query_parser.h"
#include "xml/xml.h"

namespace quarry::core {

namespace {

/// RAII marker of "a build of the next generation is in flight" — the
/// precondition for degrading a shed query to a stale read (§9.3).
class BuildInFlight {
 public:
  explicit BuildInFlight(std::atomic<int>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  ~BuildInFlight() { counter_->fetch_sub(1, std::memory_order_relaxed); }
  BuildInFlight(const BuildInFlight&) = delete;
  BuildInFlight& operator=(const BuildInFlight&) = delete;

 private:
  std::atomic<int>* counter_;
};

// --- request attribution (docs/OBSERVABILITY.md) --------------------------

obs::Counter& RequestsTotal(const std::string& kind) {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_requests_total", "Requests completed through Quarry entry "
      "points, by kind",
      {{"kind", kind}});
}

obs::Counter& RequestFailuresTotal(const std::string& kind) {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_request_failures_total",
      "Requests that completed with a non-OK status, by kind",
      {{"kind", kind}});
}

obs::Histogram& RequestMicrosHistogram(const std::string& kind) {
  return obs::MetricsRegistry::Instance().histogram(
      "quarry_request_micros",
      "End-to-end request latency (admission wait included), by kind",
      obs::LatencyBucketsMicros(), {{"kind", kind}});
}

// Collect (name-pointer, micros) pairs, sort, and copy only the three
// strings that survive — this runs on every request completion, so the
// other N-3 operator names are never copied.
using OpRef = std::pair<const std::string*, double>;

void CollectOpRefs(const std::vector<obs::ProfileNode>& nodes,
                   std::vector<OpRef>* out) {
  for (const obs::ProfileNode& node : nodes) {
    out->push_back({&node.id, node.wall_micros});
    CollectOpRefs(node.children, out);
  }
}

std::vector<obs::OpTiming> KeepSlowestThree(std::vector<OpRef> ops) {
  std::sort(ops.begin(), ops.end(), [](const OpRef& a, const OpRef& b) {
    return a.second > b.second;
  });
  if (ops.size() > 3) ops.resize(3);
  std::vector<obs::OpTiming> out;
  out.reserve(ops.size());
  for (const OpRef& op : ops) out.push_back({*op.first, op.second});
  return out;
}

std::vector<obs::OpTiming> SlowestOps(
    const std::vector<obs::ProfileNode>& roots) {
  std::vector<OpRef> ops;
  CollectOpRefs(roots, &ops);
  return KeepSlowestThree(std::move(ops));
}

std::vector<obs::OpTiming> SlowestOpsFromReport(
    const etl::ExecutionReport& report) {
  std::vector<OpRef> ops;
  ops.reserve(report.nodes.size());
  for (const etl::NodeStats& stats : report.nodes) {
    ops.push_back({&stats.node_id, stats.millis * 1000.0});
  }
  return KeepSlowestThree(std::move(ops));
}

}  // namespace

/// Attribution scope of one entry-point invocation: supplies a fallback
/// ExecContext when the caller passed none (the request id must travel
/// regardless), stamps the monotonic request id, times the request end to
/// end, folds the entry point's result into the record (Describe) and —
/// via Finish(), exactly once — writes the per-kind metrics and the
/// event-log completion record.
class Quarry::RequestScope {
 public:
  RequestScope(std::string kind, const ExecContext** ctx) {
    if (*ctx == nullptr) {
      owned_ = std::make_unique<ExecContext>();
      *ctx = owned_.get();
    }
    record_.kind = std::move(kind);
    record_.id = (*ctx)->EnsureRequestId();
    record_.tenant = (*ctx)->tenant();
  }

  uint64_t id() const { return record_.id; }
  obs::RequestRecord& record() { return record_; }
  void set_admission_wait(double micros) {
    record_.admission_wait_micros = micros;
  }

  /// The flow a deployment's or refresh's ETL profile is drawn over. It
  /// must stay unchanged until Finish runs.
  void set_profile_flow(const etl::Flow* flow) { profile_flow_ = flow; }

  // Describe folds an entry point's result into the record and returns the
  // status the request effectively completed with — the one both the
  // request record and the tenant circuit breaker see. A profile renderer
  // it installs references `result`, which must outlive Finish.

  Status Describe(const Status& status) { return status; }

  Status Describe(const Result<integrator::IntegrationOutcome>& outcome) {
    return outcome.status();
  }

  /// Rows, slowest operators, and the full ETL profile of a refresh. It
  /// returns a report only once it published; the body sets the generation.
  Status Describe(const Result<etl::ExecutionReport>& report) {
    if (report.ok()) {
      record_.rows = report->rows_processed;
      record_.slowest_ops = SlowestOpsFromReport(*report);
      if (profile_flow_ != nullptr) {
        profile_renderer_ = [this, &report] {
          return RenderEtlProfile(Status::OK(), record_.generation, *report);
        };
      }
    }
    return report.status();
  }

  Status Describe(const Result<QueryResult>& result) {
    if (result.ok()) {
      record_.rows = static_cast<int64_t>(result->data.rows.size());
      record_.generation = result->generation;
      record_.stale = result->stale;
      if (!result->profile.roots.empty()) {
        record_.slowest_ops = SlowestOps(result->profile.roots);
        profile_renderer_ = [&result] { return result->profile.ToJson(); };
      }
    }
    return result.status();
  }

  /// Rows, generation, slowest operators, and the full ETL profile. A
  /// deployment that "succeeded" as a Result but rolled back logically
  /// completes with its DeploymentFailure cause.
  Status Describe(const Result<deployer::DeploymentOutcome>& outcome) {
    if (!outcome.ok()) return outcome.status();
    const deployer::DeploymentOutcome& o = *outcome;
    const Status status = !o.success && !o.partial && o.failure.has_value()
                              ? o.failure->cause
                              : Status::OK();
    record_.rows = o.report.etl.rows_processed;
    record_.generation = o.published_generation;
    record_.slowest_ops = SlowestOpsFromReport(o.report.etl);
    if (profile_flow_ != nullptr) {
      profile_renderer_ = [this, status, &o] {
        return RenderEtlProfile(status, o.published_generation, o.report.etl);
      };
    }
    return status;
  }

  /// Completes the request: per-kind metrics + the event-log record. The
  /// profile JSON is only rendered when the request's latency crosses the
  /// slow threshold and the record will actually keep it: rendering
  /// eagerly on every fast query would charge ~10% serialization tax to
  /// requests whose profile is dropped anyway.
  void Finish(const Status& status) {
    record_.latency_micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start_)
            .count();
    record_.status =
        status.ok() ? "ok" : StatusCodeToString(status.code());
    if (profile_renderer_ &&
        record_.latency_micros >=
            obs::RequestLog::Instance().slow_threshold_micros()) {
      record_.profile_json = profile_renderer_();
    }
    RequestsTotal(record_.kind).Increment();
    if (!status.ok()) RequestFailuresTotal(record_.kind).Increment();
    RequestMicrosHistogram(record_.kind).Observe(record_.latency_micros);
    obs::RequestLog::Instance().Record(std::move(record_));
  }

 private:
  /// The EXPLAIN ANALYZE JSON of a deployment's or refresh's ETL run over
  /// the profile flow.
  std::string RenderEtlProfile(const Status& status, uint64_t generation,
                               const etl::ExecutionReport& report) const {
    obs::RequestProfile profile;
    profile.request_id = record_.id;
    profile.kind = record_.kind;
    profile.status = status.ok() ? "ok" : StatusCodeToString(status.code());
    profile.generation = generation;
    profile.rows = report.rows_processed;
    profile.admission_wait_micros = record_.admission_wait_micros;
    profile.total_micros = report.total_millis * 1000.0;
    profile.roots = etl::BuildProfileTrees(*profile_flow_, report);
    return profile.ToJson();
  }

  std::unique_ptr<ExecContext> owned_;
  obs::RequestRecord record_;
  const etl::Flow* profile_flow_ = nullptr;
  std::function<std::string()> profile_renderer_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

Quarry::Quarry(ontology::Ontology onto, ontology::SourceMapping mapping,
               const storage::Database* source, QuarryConfig config)
    : onto_(std::make_unique<ontology::Ontology>(std::move(onto))),
      mapping_(std::make_unique<ontology::SourceMapping>(std::move(mapping))),
      source_(source),
      config_(std::move(config)),
      warehouse_(config_.database_name) {
  elicitor_ = std::make_unique<req::Elicitor>(onto_.get());
  interpreter_ =
      std::make_unique<interpreter::Interpreter>(onto_.get(), mapping_.get());
  etl::TableColumns columns;
  std::map<std::string, int64_t> rows;
  for (const std::string& name : source_->TableNames()) {
    const storage::Table& table = **source_->GetTable(name);
    std::vector<std::string> cols;
    for (const storage::Column& c : table.schema().columns()) {
      cols.push_back(c.name);
    }
    columns[name] = std::move(cols);
    rows[name] = static_cast<int64_t>(table.num_rows());
  }
  design_ = std::make_unique<integrator::DesignIntegrator>(
      onto_.get(), std::move(columns), std::move(rows), config_.md_options,
      config_.etl_cost);
  admission_ = std::make_unique<AdmissionController>(config_.admission);
  // Serving lanes (§9.4): the lane names are fixed here — they are metric
  // identities (quarry_admission_*{lane=...}), not configuration. The
  // design lane keeps whatever the caller set (empty by default, i.e. the
  // unlabeled pre-lane identities).
  AdmissionOptions query_opts = config_.serving.query_admission;
  query_opts.lane = "query";
  // Serving-lane defaults (§11): a query carrying a deadline should neither
  // wait past the point where finishing on time is possible (derived queue
  // timeout) nor enter a queue whose expected wait already exceeds its
  // remaining deadline (eviction). Both only bite for bounded deadlines, so
  // deadline-less callers keep the wait-forever semantics.
  query_opts.derive_queue_timeout_from_deadline = true;
  query_opts.deadline_eviction = true;
  query_admission_ = std::make_unique<AdmissionController>(query_opts);
  AdmissionOptions stale_opts = config_.serving.stale_admission;
  stale_opts.lane = "stale";
  stale_admission_ = std::make_unique<AdmissionController>(stale_opts);

  auto& registry = obs::MetricsRegistry::Instance();
  // Both modes registered eagerly so dashboards see explicit zeros.
  queries_fresh_total_ = &registry.counter(
      "quarry_serving_queries_total",
      "Cube queries served from a pinned warehouse generation, by mode.",
      {{"mode", "fresh"}});
  queries_stale_total_ = &registry.counter(
      "quarry_serving_queries_total",
      "Cube queries served from a pinned warehouse generation, by mode.",
      {{"mode", "stale"}});
  query_micros_ = &registry.histogram(
      "quarry_serving_query_micros",
      "End-to-end latency of served cube queries (pin + compile + execute).",
      obs::LatencyBucketsMicros());
  // Request-attribution families, one instance per entry-point kind, plus
  // the event-log counters (RequestLog registers its own) — all eager so
  // the first scrape shows zeros, not gaps.
  for (const char* kind :
       {"requirement", "requirement_remove", "deploy_serving",
        "refresh_serving", "query"}) {
    RequestsTotal(kind);
    RequestFailuresTotal(kind);
    RequestMicrosHistogram(kind);
  }
  obs::RequestLog::Instance();
}

Result<std::unique_ptr<Quarry>> Quarry::Create(
    ontology::Ontology onto, ontology::SourceMapping mapping,
    const storage::Database* source, QuarryConfig config) {
  if (source == nullptr) {
    return Status::InvalidArgument("source database is null");
  }
  QUARRY_RETURN_NOT_OK(
      mapping.Validate(onto).WithContext("source schema mappings"));
  auto quarry = std::unique_ptr<Quarry>(
      new Quarry(std::move(onto), std::move(mapping), source,
                 std::move(config)));

  // Persist the semantic metadata (paper §2.5: the repository holds domain
  // ontologies and source schema mappings).
  QUARRY_RETURN_NOT_OK(quarry->repository_.StoreXml(
      "ontologies", quarry->onto_->name(), *quarry->onto_->ToXml()));
  QUARRY_RETURN_NOT_OK(quarry->repository_.StoreXml(
      "mappings", quarry->onto_->name(), *quarry->mapping_->ToXml()));

  // Built-in export parsers.
  const storage::Database* source_db = quarry->source_;
  const ontology::SourceMapping* mapping_ptr = quarry->mapping_.get();
  std::string db_name = quarry->config_.database_name;
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterExporter(
      "sql", [source_db, mapping_ptr, db_name](const xml::Element& doc)
                 -> Result<std::string> {
        QUARRY_ASSIGN_OR_RETURN(md::MdSchema schema, md::MdSchema::FromXml(doc));
        return deployer::GenerateSql(schema, *mapping_ptr, *source_db,
                                     db_name);
      }));
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterExporter(
      "pdi", [db_name](const xml::Element& doc) -> Result<std::string> {
        QUARRY_ASSIGN_OR_RETURN(etl::Flow flow, etl::FlowFromXlm(doc));
        return deployer::GeneratePdiText(flow, db_name);
      }));
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterExporter(
      "xmd", [](const xml::Element& doc) -> Result<std::string> {
        return xml::Write(doc);
      }));
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterExporter(
      "xlm", [](const xml::Element& doc) -> Result<std::string> {
        return xml::Write(doc);
      }));
  // Built-in import parsers (paper §2.5: "plug-in capabilities for adding
  // import and export parsers").
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterImporter(
      "arq",
      [](std::string_view text) -> Result<std::unique_ptr<xml::Element>> {
        QUARRY_ASSIGN_OR_RETURN(req::InformationRequirement ir,
                                req::ParseRequirementQuery(text));
        return req::ToXrq(ir);
      }));
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterImporter(
      "xrq",
      [](std::string_view text) -> Result<std::unique_ptr<xml::Element>> {
        return xml::Parse(text);
      }));
  return quarry;
}

Status Quarry::EnableDurability(const std::string& dir) {
  return repository_.EnableDurability(dir);
}

Status Quarry::EnableServingDurability(const std::string& dir) {
  // The annex persisted with each generation is the serialized xMD
  // document; recovery parses it back into the immutable schema snapshot
  // that SubmitQuery compiles cube queries against.
  storage::GenerationStore::AnnexDecoder decoder =
      [](const std::string& bytes) -> Result<std::shared_ptr<const void>> {
    QUARRY_ASSIGN_OR_RETURN(auto root, xml::Parse(bytes));
    QUARRY_ASSIGN_OR_RETURN(md::MdSchema schema, md::MdSchema::FromXml(*root));
    return std::shared_ptr<const void>(
        std::make_shared<const md::MdSchema>(std::move(schema)));
  };
  return warehouse_.EnableDurability(dir, std::move(decoder),
                                     &recovery_report_.warehouse);
}

std::string RecoveryReport::ToString() const {
  return "metadata{" + metadata.ToString() + "} warehouse{" +
         warehouse.ToString() + "}";
}

Status Quarry::RefreshUnifiedArtifacts() {
  QUARRY_RETURN_NOT_OK(repository_.StoreXml("unified_xmd", "unified",
                                            *design_->schema().ToXml()));
  QUARRY_RETURN_NOT_OK(repository_.StoreXml("unified_xlm", "unified",
                                            *etl::FlowToXlm(design_->flow())));
  return Status::OK();
}

Result<integrator::IntegrationOutcome> Quarry::AddRequirement(
    const req::InformationRequirement& ir, const ExecContext* ctx) {
  QUARRY_NAMED_SPAN(span, "quarry.add_requirement");
  QUARRY_SPAN_ATTR(span, "ir_id", ir.id);
  if (RequestId(ctx) != 0) {
    QUARRY_SPAN_ATTR(span, "request_id",
                     static_cast<int64_t>(RequestId(ctx)));
  }
  if (!TenantId(ctx).empty()) {
    QUARRY_SPAN_ATTR(span, "tenant", TenantId(ctx));
  }
  QUARRY_ASSIGN_OR_RETURN(interpreter::PartialDesign partial,
                          interpreter_->Interpret(ir, ctx));
  QUARRY_ASSIGN_OR_RETURN(integrator::IntegrationOutcome outcome,
                          design_->AddRequirement(ir, partial, ctx));
  QUARRY_RETURN_NOT_OK(StoreRequirementArtifacts(ir, partial));
  return outcome;
}

Status Quarry::StoreRequirementArtifacts(
    const req::InformationRequirement& ir,
    const interpreter::PartialDesign& partial) {
  QUARRY_SPAN("quarry.store_artifacts");
  QUARRY_RETURN_NOT_OK(repository_.StoreXml("xrq", ir.id, *req::ToXrq(ir)));
  QUARRY_RETURN_NOT_OK(
      repository_.StoreXml("partial_xmd", ir.id, *partial.schema.ToXml()));
  QUARRY_RETURN_NOT_OK(
      repository_.StoreXml("partial_xlm", ir.id,
                           *etl::FlowToXlm(partial.flow)));
  return RefreshUnifiedArtifacts();
}

Result<integrator::IntegrationOutcome> Quarry::AddRequirementFromQuery(
    std::string_view query_text, const ExecContext* ctx) {
  QUARRY_ASSIGN_OR_RETURN(auto xrq, repository_.Import("arq", query_text));
  QUARRY_ASSIGN_OR_RETURN(req::InformationRequirement ir,
                          req::FromXrq(*xrq));
  return AddRequirement(ir, ctx);
}

Status Quarry::RemoveRequirement(const std::string& ir_id) {
  QUARRY_RETURN_NOT_OK(design_->RemoveRequirement(ir_id));
  (void)repository_.Remove("xrq", ir_id);
  (void)repository_.Remove("partial_xmd", ir_id);
  (void)repository_.Remove("partial_xlm", ir_id);
  return RefreshUnifiedArtifacts();
}

Result<integrator::IntegrationOutcome> Quarry::ChangeRequirement(
    const req::InformationRequirement& ir, const ExecContext* ctx) {
  // Interpret before touching the design: the integrator swaps the old
  // version out only once the new one is ready to integrate, and puts it
  // back if that fails.
  QUARRY_ASSIGN_OR_RETURN(interpreter::PartialDesign partial,
                          interpreter_->Interpret(ir, ctx));
  QUARRY_ASSIGN_OR_RETURN(integrator::IntegrationOutcome outcome,
                          design_->ChangeRequirement(ir, partial, ctx));
  QUARRY_RETURN_NOT_OK(StoreRequirementArtifacts(ir, partial));
  return outcome;
}

template <typename R, typename Body>
R Quarry::Gated(const char* kind, Lane lane, const ExecContext* ctx,
                Body body, const ShedFallback<R>& on_shed) {
  RequestScope scope(kind, &ctx);
  if (lane == Lane::kQuery) scope.record().lane = "query";
  // Tenant quota gate before any lane (§11): a tenant over its rate /
  // in-flight share or behind a tripped breaker is shed with a retry-after
  // hint here, so it never occupies shared queue slots.
  Result<TenantRegistry::Lease> lease = tenants_.Admit(ctx);
  if (!lease.ok()) {
    scope.Finish(lease.status());
    return lease.status();
  }
  AdmissionController& gate =
      lane == Lane::kDesign ? *admission_ : *query_admission_;
  double wait = 0.0;
  Result<AdmissionController::Ticket> ticket = gate.Admit(ctx, &wait);
  // Held through Finish: a deployment's profile renderer reads the design.
  std::unique_lock<std::mutex> design_lock(submit_mu_, std::defer_lock);
  R result = [&]() -> R {
    if (!ticket.ok()) {
      return on_shed ? on_shed(ctx, &scope, ticket.status())
                     : R(ticket.status());
    }
    scope.set_admission_wait(wait);
    if (lane == Lane::kDesign) design_lock.lock();
    return body(ctx, &scope);
  }();
  const Status status = scope.Describe(result);
  lease->Complete(status);
  scope.Finish(status);
  return result;
}

Result<integrator::IntegrationOutcome> Quarry::SubmitRequirement(
    const req::InformationRequirement& ir, const ExecContext* ctx) {
  return Gated<Result<integrator::IntegrationOutcome>>(
      "requirement", Lane::kDesign, ctx,
      [&](const ExecContext* c, RequestScope*) {
        return AddRequirement(ir, c);
      });
}

Result<integrator::IntegrationOutcome> Quarry::SubmitRequirementFromQuery(
    std::string_view query_text, const ExecContext* ctx) {
  return Gated<Result<integrator::IntegrationOutcome>>(
      "requirement", Lane::kDesign, ctx,
      [&](const ExecContext* c, RequestScope*) {
        return AddRequirementFromQuery(query_text, c);
      });
}

Status Quarry::SubmitRemoveRequirement(const std::string& ir_id,
                                       const ExecContext* ctx) {
  return Gated<Status>(
      "requirement_remove", Lane::kDesign, ctx,
      [&](const ExecContext* c, RequestScope*) -> Status {
        QUARRY_RETURN_NOT_OK(CheckContext(c, "removal of '" + ir_id + "'"));
        return RemoveRequirement(ir_id);
      });
}

Result<deployer::DeploymentOutcome> Quarry::DeployServing(
    deployer::DeployOptions options, const ExecContext* ctx) {
  return Gated<Result<deployer::DeploymentOutcome>>(
      "deploy_serving", Lane::kDesign,
      ctx != nullptr ? ctx : options.context,
      [&](const ExecContext* c, RequestScope* scope) {
        options.context = c;
        scope->set_profile_flow(&design_->flow());
        return DeployServingInternal(std::move(options));
      });
}

Result<deployer::DeploymentOutcome> Quarry::DeployServingInternal(
    deployer::DeployOptions options) {
  QUARRY_NAMED_SPAN(span, "quarry.deploy_serving");
  if (RequestId(options.context) != 0) {
    QUARRY_SPAN_ATTR(span, "request_id",
                     static_cast<int64_t>(RequestId(options.context)));
  }
  if (!TenantId(options.context).empty()) {
    QUARRY_SPAN_ATTR(span, "tenant", TenantId(options.context));
  }
  BuildInFlight build(&serving_builds_in_flight_);
  options.database_name = config_.database_name;
  options.metadata = &repository_.store();
  // The instance-wide scheduler config applies unless this deployment's
  // options already ask for parallelism themselves.
  if (options.exec.max_workers <= 1) options.exec = config_.etl_exec;
  // The deployment record is written before the publish; a failed publish
  // must take it back out.
  docstore::DocumentStore metadata_before = repository_.store().Clone();
  std::unique_ptr<storage::Database> scratch = warehouse_.BeginEmptyBuild();
  deployer::Deployer dep(source_, scratch.get());
  QUARRY_ASSIGN_OR_RETURN(
      deployer::DeploymentOutcome outcome,
      dep.DeployTransactional(design_->schema(), design_->flow(), *mapping_,
                              options));
  // A failed build never publishes: the scratch dies with this scope and
  // the currently-served generation is untouched. Best-effort partials do
  // publish — the stale lane and the metadata record mark them degraded.
  if (!outcome.success && !outcome.partial) return outcome;
  // The schema snapshot is published atomically with the data so queries
  // never read a schema newer (or older) than the tables they scan. Its
  // serialized form rides along so a durable store can persist it and
  // recovery can serve queries straight from disk (§10).
  auto annex = std::make_shared<const md::MdSchema>(design_->schema());
  const std::string annex_bytes = xml::Write(*annex->ToXml());
  Result<uint64_t> published =
      warehouse_.Publish(std::move(scratch), std::move(annex), annex_bytes);
  if (published.ok()) {
    outcome.published_generation = *published;
    return outcome;
  }
  // O(1) rollback: the built scratch is simply discarded and readers keep
  // the previously published generation.
  repository_.store().RestoreFrom(metadata_before);
  deployer::DeploymentFailure failure;
  failure.stage = "publish";
  failure.rolled_back = true;
  failure.cause = published.status();
  outcome.success = false;
  outcome.partial = false;
  outcome.failure = std::move(failure);
  return outcome;
}

Result<etl::ExecutionReport> Quarry::RefreshServing(const ExecContext* ctx) {
  return Gated<Result<etl::ExecutionReport>>(
      "refresh_serving", Lane::kDesign, ctx,
      [&](const ExecContext* c,
          RequestScope* scope) -> Result<etl::ExecutionReport> {
        scope->set_profile_flow(&design_->flow());
        if (!warehouse_.has_generation()) {
          return Status::NotFound(
              "no published warehouse generation to refresh — run "
              "DeployServing first");
        }
        QUARRY_NAMED_SPAN(span, "quarry.refresh_serving");
        QUARRY_SPAN_ATTR(span, "request_id",
                         static_cast<int64_t>(scope->id()));
        if (!TenantId(c).empty()) {
          QUARRY_SPAN_ATTR(span, "tenant", TenantId(c));
        }
        // A refresh is a deploy of the current design over the current
        // source.
        deployer::DeployOptions options;
        options.context = c;
        QUARRY_ASSIGN_OR_RETURN(deployer::DeploymentOutcome outcome,
                                DeployServingInternal(std::move(options)));
        if (outcome.published_generation == 0) return outcome.failure->cause;
        scope->record().generation = outcome.published_generation;
        return std::move(outcome.report.etl);
      });
}

Result<QueryResult> Quarry::SubmitQuery(const olap::CubeQuery& query,
                                        const QueryOptions& opts,
                                        const ExecContext* ctx) {
  return Gated<Result<QueryResult>>(
      "query", Lane::kQuery, ctx,
      [&](const ExecContext* c, RequestScope* scope) {
        return ExecutePinnedQuery(query, /*stale=*/false, c,
                                  opts.collect_profile,
                                  scope->record().admission_wait_micros);
      },
      // Graceful degradation (§9.3): under overload while a publish is
      // pending, an opted-in caller may still be served generation N-1
      // through the bounded stale lane instead of being turned away.
      [&](const ExecContext* c, RequestScope* scope,
          const Status& shed) -> Result<QueryResult> {
        if (!shed.IsOverloaded() || !opts.allow_stale ||
            serving_builds_in_flight_.load(std::memory_order_relaxed) == 0) {
          return shed;
        }
        double wait = 0.0;
        Result<AdmissionController::Ticket> stale_ticket =
            stale_admission_->Admit(c, &wait);
        if (!stale_ticket.ok()) return shed;
        Result<QueryResult> stale = ExecutePinnedQuery(
            query, /*stale=*/true, c, opts.collect_profile, wait);
        // Nothing to degrade onto (single published generation): surface
        // the original overload, not the fallback's NotFound.
        if (!stale.ok() && stale.status().IsNotFound()) return shed;
        scope->record().lane = "stale";
        scope->set_admission_wait(wait);
        return stale;
      });
}

Result<QueryResult> Quarry::ExecutePinnedQuery(const olap::CubeQuery& query,
                                               bool stale,
                                               const ExecContext* ctx,
                                               bool collect_profile,
                                               double admission_wait_micros) {
  QUARRY_NAMED_SPAN(span, "quarry.submit_query");
  if (RequestId(ctx) != 0) {
    QUARRY_SPAN_ATTR(span, "request_id",
                     static_cast<int64_t>(RequestId(ctx)));
  }
  if (!TenantId(ctx).empty()) {
    QUARRY_SPAN_ATTR(span, "tenant", TenantId(ctx));
  }
  const auto start = std::chrono::steady_clock::now();
  QUARRY_ASSIGN_OR_RETURN(
      storage::GenerationStore::Pin pin,
      stale ? warehouse_.AcquirePrevious() : warehouse_.Acquire());
  QUARRY_SPAN_ATTR(span, "generation", std::to_string(pin.generation()));
  // The schema snapshot travels with the generation — reading the live
  // design_->schema() here would race with concurrent requirement changes.
  auto schema = std::static_pointer_cast<const md::MdSchema>(pin.annex());
  if (schema == nullptr) {
    return Status::Internal("generation " + std::to_string(pin.generation()) +
                            " was published without a schema annex");
  }
  olap::CubeQueryEngine engine(schema.get(), mapping_.get(), &pin.db());
  olap::QueryProfile query_profile;
  QUARRY_ASSIGN_OR_RETURN(
      etl::Dataset data,
      engine.Execute(query, ctx,
                     collect_profile ? &query_profile : nullptr));
  (stale ? queries_stale_total_ : queries_fresh_total_)->Increment();
  const double total_micros = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  query_micros_->Observe(total_micros);
  QueryResult result;
  result.generation = pin.generation();
  result.stale = stale;
  result.request_id = RequestId(ctx);
  if (collect_profile) {
    result.profile.request_id = result.request_id;
    result.profile.kind = "query";
    result.profile.lane = stale ? "stale" : "query";
    result.profile.generation = pin.generation();
    result.profile.stale = stale;
    result.profile.admission_wait_micros = admission_wait_micros;
    result.profile.total_micros = total_micros;
    result.profile.rows = static_cast<int64_t>(data.rows.size());
    result.profile.roots = std::move(query_profile.plan);
  }
  result.data = std::move(data);
  return result;
}

Result<std::string> Quarry::ExportSchema(const std::string& format) const {
  return repository_.Export(format, *design_->schema().ToXml());
}

Result<std::string> Quarry::ExportFlow(const std::string& format) const {
  return repository_.Export(format, *etl::FlowToXlm(design_->flow()));
}

}  // namespace quarry::core
