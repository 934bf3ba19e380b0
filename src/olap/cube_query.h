#ifndef QUARRY_OLAP_CUBE_QUERY_H_
#define QUARRY_OLAP_CUBE_QUERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "etl/exec/executor.h"
#include "mdschema/md_schema.h"
#include "ontology/mapping.h"
#include "storage/database.h"

namespace quarry::olap {

/// One requested aggregate of a cube query.
struct QueryMeasure {
  std::string measure;            ///< Measure (= fact column) name.
  md::AggFunc function = md::AggFunc::kSum;
  std::string alias;              ///< Output column ("" -> measure name).
};

/// \brief A roll-up query over a deployed star schema (paper §2.4: after
/// deployment "the deployed design solutions are then available for
/// further user-preferred tunings and use").
///
/// The query names a fact, a set of dimension attributes to group by
/// (qualified as "<Dimension>.<Level>.<attribute>" or just the attribute
/// name when unambiguous), measures to aggregate, and optional filter
/// predicates over dimension attributes or fact columns (expression
/// syntax of etl::ParseExpr).
struct CubeQuery {
  std::string fact;
  std::vector<std::string> group_by;   ///< Dimension attribute names.
  std::vector<QueryMeasure> measures;
  std::vector<std::string> filters;    ///< Conjunctive predicates.
};

/// What a profiled Execute hands back besides the dataset: the executor's
/// raw per-node report plus the EXPLAIN ANALYZE plan tree built from the
/// *compiled* flow — so profile output names the real plan nodes
/// ("q_fact", "q_join_<concept>", "q_agg", ...), not a reconstruction.
struct QueryProfile {
  etl::ExecutionReport report;
  std::vector<obs::ProfileNode> plan;  ///< etl::BuildProfileTrees output.
};

/// \brief Compiles cube queries into ETL-engine plans over the warehouse.
///
/// The engine doubles as the query executor: a cube query becomes a flow of
/// Datastore/Join/Selection/Projection/Aggregation nodes over the deployed
/// tables (fact joined with the dimension tables providing the requested
/// attributes), executed by etl::Executor. This exercises exactly the
/// OLAP-style access path the paper's deployment scenario demonstrates.
class CubeQueryEngine {
 public:
  /// `schema` is the deployed MD schema; `mapping` resolves level concepts
  /// to dim-table keys; `warehouse` holds the deployed tables. All must
  /// outlive the engine.
  CubeQueryEngine(const md::MdSchema* schema,
                  const ontology::SourceMapping* mapping,
                  const storage::Database* warehouse)
      : schema_(schema), mapping_(mapping), warehouse_(warehouse) {}

  /// Runs the query; the result is an in-memory dataset (group columns in
  /// request order, then aggregates). `ctx` (nullable) carries the
  /// request's cancellation token / deadline / budgets into the executing
  /// flow exactly like every ETL run does (docs/ROBUSTNESS.md §7): each
  /// operator pre-checks it, kernels poll it before every chunk, and a
  /// lifecycle error (kCancelled / kDeadlineExceeded / kResourceExhausted)
  /// surfaces unretried — a long scan cannot outlive its request.
  ///
  /// `profile` (nullable) receives the executor's per-node stats and the
  /// EXPLAIN ANALYZE plan tree of the compiled flow; it is filled on
  /// success and on execution failure alike (compile failures leave it
  /// empty — there is no plan to report).
  Result<etl::Dataset> Execute(const CubeQuery& query,
                               const ExecContext* ctx = nullptr,
                               QueryProfile* profile = nullptr) const;

  /// The flow the query compiles to (exposed for tests / EXPLAIN).
  Result<etl::Flow> Compile(const CubeQuery& query) const;

 private:
  const md::MdSchema* schema_;
  const ontology::SourceMapping* mapping_;
  const storage::Database* warehouse_;
};

}  // namespace quarry::olap

#endif  // QUARRY_OLAP_CUBE_QUERY_H_
