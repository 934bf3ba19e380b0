#ifndef QUARRY_ETL_SCHEMA_INFERENCE_H_
#define QUARRY_ETL_SCHEMA_INFERENCE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "etl/flow.h"

namespace quarry::etl {

/// Column lists of the source tables a flow may extract from.
using TableColumns = std::map<std::string, std::vector<std::string>>;

/// One aggregate of an Aggregation node's "aggs" parameter.
struct AggSpec {
  std::string function;  ///< SUM, AVG, MIN, MAX, COUNT
  std::string input;     ///< Column name; "*" only for COUNT.
  std::string output;    ///< Result column name.
};

/// Parses "SUM(x) AS sx;AVG(y) AS ay;COUNT(*) AS n".
Result<std::vector<AggSpec>> ParseAggSpecs(const std::string& text);

/// Renders specs back to the parameter encoding.
std::string AggSpecsToString(const std::vector<AggSpec>& specs);

/// \brief What one operator reads of its inputs: the rule that InferColumns
/// checks against the input schemas and that LiveColumnsOf propagates
/// backwards (DESIGN.md §8, "Column liveness").
struct ColumnReads {
  /// How the names a node's consumers read reach the node's inputs.
  enum class Rule {
    kPassThrough,  ///< The output's live names plus `own` (Extraction,
                   ///< Selection, Function, SurrogateKey, Join, Union).
    kSubset,       ///< The names of `own` live in the output (Projection).
    kOwn,          ///< `own` alone (Aggregation, Datastore).
    kAll,          ///< Every input column (Sort, Loader).
  };
  Rule rule = Rule::kAll;
  /// Per input, in edge order: the names the operator references itself
  /// (a join's keys on their own side).
  std::vector<std::set<std::string>> own;
};

/// The read rule of `node` given its input count. Fails, with the message
/// InferColumns reports, when the node has the wrong number of inputs or
/// params that do not parse.
Result<ColumnReads> ColumnsRead(const Node& node, size_t num_inputs);

/// The output columns of one node that some downstream operator may read.
struct LiveColumns {
  bool all = true;              ///< Every column; `names` is then unused.
  std::set<std::string> names;  ///< The live names when `all` is false.

  bool Contains(const std::string& name) const {
    return all || names.count(name) > 0;
  }
};

/// \brief Column liveness: walks `flow` backwards once (`order` is
/// flow.TopologicalOrder()) and gives every node the set of its output
/// column names that some downstream operator may read, by the rules of
/// ColumnsRead. Works by name and errs toward keeping columns: a node with
/// no consumer, or feeding a consumer whose params do not parse, keeps
/// every column. Depends on the flow alone, so a Resume of the same flow
/// recomputes the same sets.
std::map<std::string, LiveColumns> LiveColumnsOf(
    const Flow& flow, const std::vector<std::string>& order);

/// \brief Computes the output column list of every node in `flow`.
///
/// Needed by the equivalence rules (to decide which join side a selection
/// may be pushed to), by the executor (to bind expressions), and by flow
/// validation. Fails when an operator references a column its input does
/// not provide, when a join would produce duplicate column names, or when
/// union inputs disagree.
Result<std::map<std::string, std::vector<std::string>>> InferColumns(
    const Flow& flow, const TableColumns& sources);

}  // namespace quarry::etl

#endif  // QUARRY_ETL_SCHEMA_INFERENCE_H_
