#include "deployer/deployer.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "common/timer.h"
#include "deployer/pdi_generator.h"
#include "deployer/sql_generator.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/sql.h"

namespace quarry::deployer {

namespace {

obs::Counter& DeployCounter(const char* family, const char* help) {
  return obs::MetricsRegistry::Instance().counter(family, help);
}

/// Observes the wall time of one deployment stage into
/// quarry_deploy_stage_micros{stage=...} when the scope closes — failure
/// paths included, since a slow failing stage is exactly what an operator
/// wants to see.
struct StageScope {
  explicit StageScope(const char* stage) : stage(stage) {}
  ~StageScope() {
    obs::MetricsRegistry::Instance()
        .histogram("quarry_deploy_stage_micros",
                   "Wall time per deployment stage in microseconds",
                   /*bounds=*/{}, {{"stage", stage}})
        .Observe(timer.ElapsedMicros());
  }
  const char* stage;
  Timer timer;
};

/// Deploy-level retry backoff: clipped by the policy's overall budget and
/// the request deadline, and accumulated into `*spent_ms` so the budget
/// spans the DDL and metadata retry loops together.
void BackoffSleep(const etl::RetryPolicy& policy, int failed_attempts,
                  Prng* prng, double* spent_ms, const ExecContext* ctx) {
  double sleep_ms = etl::BoundedBackoffMillis(policy, failed_attempts, prng,
                                              *spent_ms, ctx);
  if (sleep_ms > 0) {
    *spent_ms += sleep_ms;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
}

/// The deployment record written to the metadata store's "deployments"
/// collection (paper §2.5: the repository tracks every design artifact —
/// deployments included, so evolution steps can see what is live).
json::Value DeploymentRecord(const DeployOptions& options,
                             const std::string& status,
                             const DeploymentReport& report,
                             const std::vector<std::string>& kept_tables) {
  json::Object doc;
  doc.emplace_back("_id", json::Value(options.deployment_id));
  doc.emplace_back("status", json::Value(status));
  doc.emplace_back("database", json::Value(options.database_name));
  // Whether this record itself rode the crash-safe (WAL-backed) path —
  // operators auditing a recovery need to know if the record can be trusted
  // to have survived a kill (docs/ROBUSTNESS.md §6).
  doc.emplace_back("metadata_durable",
                   json::Value(options.metadata != nullptr &&
                               options.metadata->durable()));
  doc.emplace_back("tables_created",
                   json::Value(static_cast<int64_t>(report.tables_created)));
  json::Object rows;
  for (const auto& [table, n] : report.etl.loaded) {
    rows.emplace_back(table, json::Value(n));
  }
  doc.emplace_back("rows_loaded", json::Value(std::move(rows)));
  doc.emplace_back("recovered", json::Value(report.etl.recovered));
  if (!kept_tables.empty()) {
    json::Array kept;
    for (const std::string& t : kept_tables) kept.push_back(json::Value(t));
    doc.emplace_back("kept_tables", json::Value(std::move(kept)));
  }
  return json::Value(std::move(doc));
}

}  // namespace

Result<DeploymentOutcome> Deployer::DeployTransactional(
    const md::MdSchema& schema, const etl::Flow& flow,
    const ontology::SourceMapping& mapping, const DeployOptions& options) {
  if (target_->num_tables() > 0) {
    return Status::InvalidArgument(
        "deployment target '" + target_->name() + "' is not empty (" +
        std::to_string(target_->num_tables()) + " tables)");
  }
  DeploymentOutcome outcome;
  DeploymentReport& report = outcome.report;
  QUARRY_NAMED_SPAN(deploy_span, "deploy");
  QUARRY_SPAN_ATTR(deploy_span, "database", options.database_name);
  QUARRY_SPAN_ATTR(deploy_span, "deployment_id", options.deployment_id);
  if (RequestId(options.context) != 0) {
    QUARRY_SPAN_ATTR(deploy_span, "request_id",
                     static_cast<int64_t>(RequestId(options.context)));
  }
  DeployCounter("quarry_deploy_attempts_total",
                "Transactional deployments started")
      .Increment();
  const int max_attempts = std::max(1, options.retry.max_attempts);
  // Distinct jitter stream from the executor's so deploy-level retries do
  // not perturb the per-node backoff sequence.
  Prng backoff_prng(options.retry.jitter_seed ^ 0xD3B07384D113EDECULL);
  double backoff_spent_ms = 0;
  const ExecContext* ctx = options.context;

  // The target starts empty, so every table in it is one this deploy
  // created and undoing the target is erasing them (and the name the DDL's
  // CREATE DATABASE set). The metadata store needs no snapshot: the only
  // write to it is the deployment record, and write_record undoes a failed
  // one (docs/ROBUSTNESS.md).
  const std::string target_name = target_->name();
  auto erase_created_tables = [&]() {
    for (const std::string& name : target_->TableNames()) {
      target_->EraseTable(name);
    }
    target_->set_name(target_name);
  };
  // A failed Upsert leaves memory as it was but for the "deployments"
  // collection GetOrCreate made for it, which the write drops. On a durable
  // store it may also leave its frame in the WAL (the append reached the
  // file, the fsync failed) or a fail-stopped writer, so the store is
  // re-checkpointed as memory holds it: that discards the frame and opens
  // a fresh log. Best effort, like RestoreFrom's re-checkpoint.
  auto write_record = [&](const std::string& status,
                          const std::vector<std::string>& kept_tables) {
    docstore::DocumentStore& meta = *options.metadata;
    const bool had_collection = meta.Get("deployments").ok();
    Status written = meta.GetOrCreate("deployments")
                         ->Upsert(options.deployment_id,
                                  DeploymentRecord(options, status, report,
                                                   kept_tables));
    if (!written.ok()) {
      if (!had_collection) meta.DropIfEmpty("deployments");
      if (meta.durable()) (void)meta.SaveToDirectory(meta.durable_dir());
    }
    return written;
  };

  auto roll_back = [&]() {
    QUARRY_SPAN("deploy.rollback");
    DeployCounter("quarry_deploy_rollbacks_total",
                  "Deployments rolled back to the pre-deploy snapshot")
        .Increment();
    erase_created_tables();
  };
  auto fail = [&](std::string stage, Status cause) -> DeploymentOutcome {
    DeploymentFailure failure;
    failure.stage = std::move(stage);
    failure.cause = std::move(cause);
    failure.rolled_back = true;
    outcome.failure = std::move(failure);
    outcome.success = false;
    return std::move(outcome);
  };

  // Stage boundaries are cancellation points: an abandoned request fails
  // before the next stage mutates anything further, and once state HAS been
  // mutated the existing rollback path restores it — a deadline mid-deploy
  // can never leave a half-deployed warehouse (docs/ROBUSTNESS.md §7).
  if (Status live = CheckContext(ctx, "deploy stage 'generate'"); !live.ok()) {
    return fail("generate", live);  // Nothing mutated yet.
  }

  // Stage 1: generate the executables. Nothing is mutated yet.
  {
    StageScope stage("generate");
    QUARRY_SPAN("deploy.generate");
    auto sql = GenerateSql(schema, mapping, *source_, options.database_name);
    if (!sql.ok()) return fail("generate", sql.status());
    report.ddl = std::move(*sql);
    report.pdi_ktr = GeneratePdiText(flow, options.database_name);
  }

  if (Status live = CheckContext(ctx, "deploy stage 'ddl'"); !live.ok()) {
    return fail("ddl", live);  // Nothing mutated yet.
  }

  // Stage 2: execute the DDL. A failed script leaves earlier statements
  // applied, so every retry starts from an empty target again.
  {
    StageScope stage("ddl");
    QUARRY_SPAN("deploy.ddl");
    Status ddl_status;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      Status live = CheckContext(ctx, "deploy stage 'ddl'");
      if (!live.ok()) {
        ddl_status = live;
        break;
      }
      auto sql_report = storage::ExecuteSql(target_, report.ddl);
      if (sql_report.ok()) {
        report.tables_created = sql_report->tables_created;
        ddl_status = Status::OK();
        break;
      }
      ddl_status = sql_report.status();
      erase_created_tables();
      if (attempt < max_attempts) {
        BackoffSleep(options.retry, attempt, &backoff_prng,
                     &backoff_spent_ms, ctx);
      }
    }
    if (!ddl_status.ok()) {
      roll_back();
      return fail("ddl", ddl_status);
    }
  }

  if (Status live = CheckContext(ctx, "deploy stage 'etl'"); !live.ok()) {
    roll_back();
    return fail("etl", live);
  }

  // Stage 3: run the unified ETL flow with per-node retries and a
  // checkpoint, so the failure report can say how far the load got.
  etl::Executor executor(source_, target_);
  etl::Checkpoint checkpoint;
  Result<etl::ExecutionReport> etl_report = Status::Internal("never ran");
  {
    StageScope stage("etl");
    QUARRY_SPAN("deploy.etl");
    etl_report =
        executor.Run(flow, options.exec, options.retry, &checkpoint, ctx);
  }
  if (!etl_report.ok()) {
    // Best-effort keeps completed tables only for genuine operator faults.
    // A request that was cancelled / timed out / blew its budget is
    // abandoned, and an abandoned deploy always rolls back fully: "partial
    // because the caller gave up" is indistinguishable from a half-deployed
    // warehouse.
    if (options.best_effort && !IsLifecycleError(etl_report.status())) {
      // Keep only tables whose every loader completed; erase the rest.
      std::set<std::string> keep;
      for (const auto& [table, n] : checkpoint.loaded) keep.insert(table);
      std::set<std::string> completed(checkpoint.completed.begin(),
                                      checkpoint.completed.end());
      for (const auto& [id, node] : flow.nodes()) {
        if (node.type != etl::OpType::kLoader || completed.count(id) > 0) {
          continue;
        }
        auto it = node.params.find("table");
        if (it != node.params.end()) keep.erase(it->second);
      }
      for (const std::string& name : target_->TableNames()) {
        if (keep.count(name) == 0) target_->EraseTable(name);
      }
      DeploymentFailure failure;
      failure.stage = "etl";
      failure.failed_node = checkpoint.failed_node;
      failure.rows_loaded = checkpoint.loaded;
      failure.cause = etl_report.status();
      failure.rolled_back = keep.empty();
      failure.kept_tables.assign(keep.begin(), keep.end());
      outcome.partial = !keep.empty();
      if (outcome.partial) {
        DeployCounter("quarry_deploy_partial_total",
                      "Best-effort deployments that kept a partial result")
            .Increment();
      }
      outcome.failure = std::move(failure);
      if (options.metadata != nullptr && outcome.partial) {
        // Best effort all the way down: a failed record write is ignored.
        (void)write_record("partial", outcome.failure->kept_tables);
      }
      return outcome;
    }
    roll_back();
    DeploymentOutcome failed =
        fail("etl", etl_report.status());
    failed.failure->failed_node = checkpoint.failed_node;
    failed.failure->rows_loaded = checkpoint.loaded;
    return failed;
  }
  report.etl = std::move(*etl_report);

  if (Status live = CheckContext(ctx, "deploy stage 'integrity'");
      !live.ok()) {
    roll_back();
    return fail("integrity", live);
  }

  // Stage 4: verify referential integrity. Broken data is never kept, not
  // even in best-effort mode.
  {
    StageScope stage("integrity");
    QUARRY_SPAN("deploy.integrity");
    Status integrity = target_->CheckReferentialIntegrity();
    report.referential_integrity_ok = integrity.ok();
    if (!integrity.ok()) {
      roll_back();
      return fail("integrity",
                  integrity.WithContext("post-deployment integrity check"));
    }
  }

  if (Status live = CheckContext(ctx, "deploy stage 'metadata'");
      !live.ok()) {
    roll_back();
    return fail("metadata", live);
  }

  // Stage 5: record the deployment in the metadata store.
  if (options.metadata != nullptr) {
    StageScope stage("metadata");
    QUARRY_SPAN("deploy.metadata");
    Status record_status;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      record_status = write_record("complete", {});
      if (record_status.ok()) break;
      if (IsLifecycleError(record_status)) break;
      if (attempt < max_attempts) {
        BackoffSleep(options.retry, attempt, &backoff_prng,
                     &backoff_spent_ms, ctx);
      }
    }
    if (!record_status.ok()) {
      roll_back();
      return fail("metadata", record_status);
    }
  }
  DeployCounter("quarry_deploy_success_total",
                "Deployments that committed all five stages")
      .Increment();
  outcome.success = true;
  return outcome;
}

}  // namespace quarry::deployer
