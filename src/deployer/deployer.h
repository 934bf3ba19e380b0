#ifndef QUARRY_DEPLOYER_DEPLOYER_H_
#define QUARRY_DEPLOYER_DEPLOYER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "docstore/document_store.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"
#include "mdschema/md_schema.h"
#include "ontology/mapping.h"
#include "storage/database.h"

namespace quarry::deployer {

/// Outcome of a full deployment.
struct DeploymentReport {
  std::string ddl;       ///< Generated SQL script (also executed).
  std::string pdi_ktr;   ///< Generated Pentaho-style transformation XML.
  int tables_created = 0;
  etl::ExecutionReport etl;  ///< Stats of the ETL population run.
  bool referential_integrity_ok = false;
};

/// \brief Knobs of the transactional deployment path.
struct DeployOptions {
  std::string database_name = "demo";
  /// Applied per ETL node, and as the attempt count for DDL execution and
  /// the metadata record write.
  etl::RetryPolicy retry;
  /// How the ETL population stage executes: the chunk kernels cut
  /// `exec.chunk_size` rows per chunk (DESIGN.md §8), and
  /// `exec.max_workers > 1` runs independent nodes concurrently
  /// (docs/ROBUSTNESS.md §8); target tables are byte-identical whatever
  /// either knob says.
  etl::ExecOptions exec;
  /// Request lifecycle (nullable): cancellation + deadline are checked at
  /// every stage boundary and cooperatively inside the ETL stage; budgets
  /// apply to the ETL run. A deadline or cancellation mid-deploy always
  /// takes the full rollback path — even in best-effort mode — so an
  /// abandoned request never leaves a half-deployed warehouse
  /// (docs/ROBUSTNESS.md §7).
  const ExecContext* context = nullptr;
  /// Degraded mode: on an unrecoverable ETL fault, keep the tables whose
  /// loaders completed (typically the dimensions), erase only the
  /// unfinished ones, and mark the deployment "partial" in the metadata
  /// store instead of rolling everything back.
  bool best_effort = false;
  /// Receives the deployment record in its "deployments" collection, the
  /// deploy's only write to it; a failed record write is undone, and a
  /// durable store re-checkpointed. Usually the metadata repository's
  /// underlying store. May be null.
  docstore::DocumentStore* metadata = nullptr;
  /// Id of the deployment record document.
  std::string deployment_id = "deployment";
};

/// \brief Structured description of a failed (or degraded) deployment.
struct DeploymentFailure {
  /// "generate" | "ddl" | "etl" | "integrity" | "metadata", or "publish"
  /// on the serving path (Quarry::DeployServing / RefreshServing).
  std::string stage;
  std::string failed_node;  ///< ETL node id (etl stage only).
  std::map<std::string, int64_t> rows_loaded;  ///< Completed loader progress.
  bool rolled_back = false;  ///< Target emptied, metadata restored.
  std::vector<std::string> kept_tables;  ///< Best-effort survivors.
  Status cause;              ///< The underlying error.
};

/// \brief Result of the transactional deployment path: either a complete
/// success, or a structured failure that is either fully rolled back or
/// (best-effort) partially kept.
struct DeploymentOutcome {
  bool success = false;
  bool partial = false;      ///< Best-effort kept some loaded tables.
  DeploymentReport report;   ///< Valid on success; partially filled otherwise.
  std::optional<DeploymentFailure> failure;
  /// Serving path only (Quarry::DeployServing / RefreshServing): the
  /// warehouse generation this deployment was published as; 0 when nothing
  /// was published (failure, or a plain into-a-target deployment).
  uint64_t published_generation = 0;
};

/// \brief The Design Deployer (paper §2.4): turns the unified design
/// solutions into executables for the target platforms and deploys them —
/// CREATE TABLE script executed on the embedded relational engine (the
/// PostgreSQL stand-in) and the unified ETL flow run on the embedded ETL
/// engine (the Pentaho stand-in) to populate it.
///
/// Deployment is transactional (docs/ROBUSTNESS.md): it builds into an
/// empty target and writes the metadata store only in its last stage (the
/// deployment record); any mid-deploy failure erases every table the
/// deploy created, leaves the metadata store byte-identical and reports a
/// DeploymentFailure, unless best-effort mode keeps the fully-loaded tables
/// and marks the deployment partial.
class Deployer {
 public:
  /// Both databases must outlive the deployer. `source` holds the
  /// operational data the ETL extracts from; `target` receives the DW.
  Deployer(const storage::Database* source, storage::Database* target)
      : source_(source), target_(target) {}

  /// Generates DDL + ktr, executes the DDL against the (empty) target, runs
  /// the flow to populate it, verifies referential integrity and records
  /// the deployment. Only infrastructure misuse (a non-empty target, a
  /// cyclic flow) yields a non-OK Result; a deployment that failed and was
  /// rolled back (or degraded to partial) comes back as an OK Result whose
  /// outcome carries the DeploymentFailure.
  Result<DeploymentOutcome> DeployTransactional(
      const md::MdSchema& schema, const etl::Flow& flow,
      const ontology::SourceMapping& mapping, const DeployOptions& options);

 private:
  const storage::Database* source_;
  storage::Database* target_;
};

}  // namespace quarry::deployer

#endif  // QUARRY_DEPLOYER_DEPLOYER_H_
