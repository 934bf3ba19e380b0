#include "olap/cube_query.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/str_util.h"
#include "etl/expr.h"

namespace quarry::olap {

using etl::Flow;
using etl::Node;
using etl::OpType;

namespace {

Node MakeNode(std::string id, OpType type,
              std::map<std::string, std::string> params) {
  Node node;
  node.id = std::move(id);
  node.type = type;
  node.params = std::move(params);
  return node;
}

/// The answer column a measure is aggregated into.
const std::string& OutputName(const QueryMeasure& m) {
  return m.alias.empty() ? m.measure : m.alias;
}

}  // namespace

Result<Flow> CubeQueryEngine::Compile(const CubeQuery& query) const {
  QUARRY_ASSIGN_OR_RETURN(const md::Fact* fact, schema_->GetFact(query.fact));
  QUARRY_ASSIGN_OR_RETURN(const storage::Table* fact_table,
                          warehouse_->GetTable(query.fact));
  if (query.measures.empty()) {
    return Status::InvalidArgument("cube query requests no measures");
  }
  for (const QueryMeasure& m : query.measures) {
    if (fact->FindMeasure(m.measure) == nullptr) {
      return Status::NotFound("measure '" + m.measure + "' in fact '" +
                              fact->name + "'");
    }
  }

  // Every non-fact column (group attribute or filter input) must be
  // provided by a dimension level referenced by the fact.
  std::set<std::string> wanted_columns(query.group_by.begin(),
                                       query.group_by.end());
  for (const std::string& filter : query.filters) {
    QUARRY_ASSIGN_OR_RETURN(etl::Expr::Ptr predicate, etl::ParseExpr(filter));
    for (const std::string& column : predicate->ReferencedColumns()) {
      wanted_columns.insert(column);
    }
  }
  auto fact_has = [&](const std::string& column) {
    return fact_table->schema().ColumnIndex(column).has_value();
  };
  // concept -> columns it must contribute.
  std::map<std::string, std::set<std::string>> dim_needs;
  for (const std::string& column : wanted_columns) {
    if (fact_has(column)) continue;
    bool found = false;
    for (const md::DimensionRef& ref : fact->dimension_refs) {
      QUARRY_ASSIGN_OR_RETURN(const md::Dimension* dim,
                              schema_->GetDimension(ref.dimension));
      for (const md::Level& level : dim->levels) {
        for (const md::LevelAttribute& attr : level.attributes) {
          if (attr.name == column) {
            dim_needs[level.concept_id].insert(column);
            found = true;
          }
        }
      }
    }
    if (!found) {
      return Status::NotFound("column '" + column +
                              "' is neither a fact column nor a dimension "
                              "attribute reachable from fact '" +
                              fact->name + "'");
    }
  }

  Flow flow("query_" + query.fact);
  QUARRY_RETURN_NOT_OK(flow.AddNode(
      MakeNode("q_fact", OpType::kDatastore, {{"table", query.fact}})));
  std::string current = "q_fact";

  // Join each contributing dimension table. Keys are aliased on the dim
  // side (via Function nodes) so the join output has no duplicate columns.
  for (const auto& [concept_id, columns] : dim_needs) {
    QUARRY_ASSIGN_OR_RETURN(auto cm, mapping_->ForConcept(concept_id));
    std::string dim_table = "dim_" + concept_id;
    std::string ds_id = "q_dim_" + concept_id;
    QUARRY_RETURN_NOT_OK(flow.AddNode(
        MakeNode(ds_id, OpType::kDatastore, {{"table", dim_table}})));
    std::string side = ds_id;
    std::vector<std::string> aliases;
    for (const std::string& key : cm.key_columns) {
      std::string alias = "__" + concept_id + "_" + key;
      std::string fn_id = "q_alias_" + alias;
      QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
          fn_id, OpType::kFunction, {{"column", alias}, {"expr", key}})));
      QUARRY_RETURN_NOT_OK(flow.AddEdge(side, fn_id));
      side = fn_id;
      aliases.push_back(alias);
    }
    std::vector<std::string> projected = aliases;
    for (const std::string& column : columns) {
      if (std::find(projected.begin(), projected.end(), column) ==
          projected.end()) {
        projected.push_back(column);
      }
    }
    std::string proj_id = "q_proj_" + concept_id;
    QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
        proj_id, OpType::kProjection, {{"columns", Join(projected, ",")}})));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(side, proj_id));
    std::string join_id = "q_join_" + concept_id;
    QUARRY_RETURN_NOT_OK(flow.AddNode(
        MakeNode(join_id, OpType::kJoin,
                 {{"left", Join(cm.key_columns, ",")},
                  {"right", Join(aliases, ",")}})));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(current, join_id));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(proj_id, join_id));
    current = join_id;
  }

  for (size_t i = 0; i < query.filters.size(); ++i) {
    std::string sel_id = "q_filter_" + std::to_string(i);
    QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
        sel_id, OpType::kSelection, {{"predicate", query.filters[i]}})));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(current, sel_id));
    current = sel_id;
  }

  // Group + aggregate + emit.
  std::vector<std::string> projected = query.group_by;
  std::vector<std::string> agg_parts;
  for (const QueryMeasure& m : query.measures) {
    if (std::find(projected.begin(), projected.end(), m.measure) ==
        projected.end()) {
      projected.push_back(m.measure);
    }
    agg_parts.push_back(std::string(md::AggFuncToEtlName(m.function)) + "(" +
                        m.measure + ") AS " + OutputName(m));
  }
  QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
      "q_project", OpType::kProjection, {{"columns", Join(projected, ",")}})));
  QUARRY_RETURN_NOT_OK(flow.AddEdge(current, "q_project"));
  QUARRY_RETURN_NOT_OK(
      flow.AddNode(MakeNode("q_agg", OpType::kAggregation,
                            {{"group", Join(query.group_by, ",")},
                             {"aggs", Join(agg_parts, ";")}})));
  QUARRY_RETURN_NOT_OK(flow.AddEdge("q_project", "q_agg"));
  QUARRY_RETURN_NOT_OK(flow.AddNode(
      MakeNode("q_result", OpType::kLoader, {{"table", "__result"}})));
  QUARRY_RETURN_NOT_OK(flow.AddEdge("q_agg", "q_result"));
  return flow;
}

Result<etl::Dataset> CubeQueryEngine::Execute(const CubeQuery& query,
                                              const ExecContext* ctx,
                                              QueryProfile* profile) const {
  QUARRY_RETURN_NOT_OK(CheckContext(ctx, "cube query compile"));
  QUARRY_ASSIGN_OR_RETURN(Flow flow, Compile(query));
  storage::Database scratch("__query");
  etl::Executor executor(warehouse_, &scratch);
  // Fail fast, no retries: a lifecycle error is never retried anyway, and
  // an interactive query prefers surfacing an operator fault over hiding
  // latency in backoff sleeps.
  Result<etl::ExecutionReport> run =
      executor.Run(flow, etl::RetryPolicy{}, nullptr, ctx);
  if (profile != nullptr && run.ok()) {
    // Move, don't copy: the report's per-node stats live on in the profile
    // only (run keeps its status for the check below).
    profile->report = std::move(run).value();
    profile->plan = etl::BuildProfileTrees(flow, profile->report);
  }
  if (!run.ok() && profile != nullptr) {
    // Report whatever the partial run recorded: an empty report still
    // yields the full plan shape (zeroed stats), which is what a failed
    // EXPLAIN ANALYZE should show.
    profile->plan = etl::BuildProfileTrees(flow, profile->report);
  }
  QUARRY_RETURN_NOT_OK(run.status());
  etl::Dataset out;
  if (!scratch.HasTable("__result")) {
    // An empty answer: the loader defers creating a table it has no rows
    // to infer column types from. The columns are the aggregation's.
    out.columns = query.group_by;
    for (const QueryMeasure& m : query.measures) {
      out.columns.push_back(OutputName(m));
    }
    return out;
  }
  QUARRY_ASSIGN_OR_RETURN(const storage::Table* result,
                          scratch.GetTable("__result"));
  for (const storage::Column& c : result->schema().columns()) {
    out.columns.push_back(c.name);
  }
  out.rows = result->rows();
  return out;
}

}  // namespace quarry::olap
