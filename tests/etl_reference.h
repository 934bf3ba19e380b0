#ifndef QUARRY_TESTS_ETL_REFERENCE_H_
#define QUARRY_TESTS_ETL_REFERENCE_H_

// The row-at-a-time reference executor: the oracle the differential harness
// (etl_parallel_test.cc EtlVectorizedTest, property_test.cc P8) compares the
// chunk runtime in src/etl/exec against. Each operator materializes an
// etl::Dataset of Rows and walks it row by row, on one thread, in
// topological order, and expressions are evaluated one row at a time by
// walking the tree (EvalRow). There are no retries, lifecycle checks,
// budgets or fault points: this file only states what a flow computes, and
// the runtime must land on its exact target bytes and per-node row counts.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "etl/exec/executor.h"
#include "etl/exec/kernel_util.h"
#include "etl/expr.h"
#include "etl/flow.h"
#include "etl/schema_inference.h"
#include "storage/database.h"

namespace quarry::etl::kernel {

// The reference's hash tables are keyed by Row with HashRow and SameAs; the
// runtime's storage::RowKey must decide exactly what these decide.
struct RowKeyHash {
  size_t operator()(const storage::Row& r) const {
    return storage::HashRow(r);
  }
};
struct RowKeyEq {
  bool operator()(const storage::Row& a, const storage::Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].SameAs(b[i])) return false;
    }
    return true;
  }
};

inline storage::Row ExtractKey(const storage::Row& row,
                               const std::vector<size_t>& positions) {
  storage::Row key;
  key.reserve(positions.size());
  for (size_t p : positions) key.push_back(row[p]);
  return key;
}

}  // namespace quarry::etl::kernel

namespace quarry::etl::reference {

using storage::Row;
using storage::Value;

/// \brief A row with named columns, as seen by expression evaluation.
///
/// Non-owning: both vectors must outlive the view. Column resolution is
/// linear, which is fine for ETL tuples (tens of columns).
struct RowView {
  const std::vector<std::string>* names = nullptr;
  const Row* row = nullptr;

  /// Value of the column, or an error when the name is unknown.
  Result<Value> Get(const std::string& name) const {
    for (size_t i = 0; i < names->size(); ++i) {
      if ((*names)[i] == name) return (*row)[i];
    }
    return Status::NotFound("column '" + name + "' in row");
  }
};

/// The row walk: evaluates `e` against one row, node by node, through the
/// scalar primitives of etl/expr.h. The oracle for the chunk kernels'
/// ColumnEvaluator (src/etl/exec/column_eval.h).
inline Result<Value> EvalRow(const Expr& e, const RowView& row) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      return e.literal();
    case Expr::Kind::kColumn:
      return row.Get(e.column());
    case Expr::Kind::kUnary: {
      QUARRY_ASSIGN_OR_RETURN(Value v, EvalRow(*e.args()[0], row));
      return EvalUnary(e.op(), v);
    }
    case Expr::Kind::kBinary: {
      const std::string& op = e.op();
      QUARRY_ASSIGN_OR_RETURN(Value a, EvalRow(*e.args()[0], row));
      // AND/OR short-circuit: the right operand is never evaluated (so an
      // unknown column there goes unnoticed) once the left one decides.
      if (op == "AND" && !ExprTruthy(a)) return Value::Bool(false);
      if (op == "OR" && ExprTruthy(a)) return Value::Bool(true);
      QUARRY_ASSIGN_OR_RETURN(Value b, EvalRow(*e.args()[1], row));
      if (op == "AND" || op == "OR") return Value::Bool(ExprTruthy(b));
      if (op == "+" || op == "-" || op == "*" || op == "/") {
        return EvalArithmetic(op, a, b);
      }
      return EvalComparison(op, a, b);
    }
  }
  return Status::Internal("corrupt expression");
}

inline Result<Dataset> Join(const Node& node, const Dataset& left,
                            const Dataset& right) {
  using kernel::Param;
  std::vector<std::string> left_keys = kernel::SplitNonEmpty(Param(node, "left"));
  std::vector<std::string> right_keys =
      kernel::SplitNonEmpty(Param(node, "right"));
  if (left_keys.empty() || left_keys.size() != right_keys.size()) {
    return Status::ExecutionError("join '" + node.id +
                                  "' has mismatched key lists");
  }
  std::string join_type = Param(node, "type");
  if (join_type.empty()) join_type = "inner";
  if (join_type != "inner" && join_type != "left") {
    return Status::ExecutionError("join '" + node.id +
                                  "': unsupported type '" + join_type + "'");
  }
  QUARRY_ASSIGN_OR_RETURN(
      auto left_pos, kernel::ColumnPositions(left.columns, left_keys, node.id));
  QUARRY_ASSIGN_OR_RETURN(
      auto right_pos,
      kernel::ColumnPositions(right.columns, right_keys, node.id));
  auto any_null = [](const Row& key) {
    return std::any_of(key.begin(), key.end(),
                       [](const Value& v) { return v.is_null(); });
  };
  std::unordered_map<Row, std::vector<size_t>, kernel::RowKeyHash,
                     kernel::RowKeyEq>
      build;
  for (size_t i = 0; i < right.rows.size(); ++i) {
    Row key = kernel::ExtractKey(right.rows[i], right_pos);
    if (!any_null(key)) build[std::move(key)].push_back(i);
  }
  Dataset out;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());
  for (const Row& lrow : left.rows) {
    Row key = kernel::ExtractKey(lrow, left_pos);
    auto it = any_null(key) ? build.end() : build.find(key);
    if (it == build.end()) {
      if (join_type == "left") {
        Row row = lrow;
        row.resize(out.columns.size(), Value::Null());
        out.rows.push_back(std::move(row));
      }
      continue;
    }
    for (size_t ridx : it->second) {
      Row row = lrow;
      row.insert(row.end(), right.rows[ridx].begin(), right.rows[ridx].end());
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

inline Result<Dataset> Aggregate(const Node& node, const Dataset& in) {
  std::vector<std::string> group =
      kernel::SplitNonEmpty(kernel::Param(node, "group"));
  QUARRY_ASSIGN_OR_RETURN(auto specs,
                          ParseAggSpecs(kernel::Param(node, "aggs")));
  QUARRY_ASSIGN_OR_RETURN(auto group_pos,
                          kernel::ColumnPositions(in.columns, group, node.id));
  std::vector<int> agg_pos(specs.size(), -1);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].input == "*") continue;
    QUARRY_ASSIGN_OR_RETURN(
        auto pos,
        kernel::ColumnPositions(in.columns, {specs[i].input}, node.id));
    agg_pos[i] = static_cast<int>(pos[0]);
  }
  std::unordered_map<Row, std::vector<kernel::AggState>, kernel::RowKeyHash,
                     kernel::RowKeyEq>
      groups;
  std::vector<Row> group_order;  // First-seen order.
  for (const Row& row : in.rows) {
    Row key = kernel::ExtractKey(row, group_pos);
    auto [it, inserted] =
        groups.try_emplace(key, std::vector<kernel::AggState>(specs.size()));
    if (inserted) group_order.push_back(key);
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].input == "*") {
        kernel::AccumulateAggStar(&it->second[i]);
      } else {
        kernel::AccumulateAgg(&it->second[i],
                              row[static_cast<size_t>(agg_pos[i])]);
      }
    }
  }
  Dataset out;
  out.columns = group;
  for (const AggSpec& s : specs) out.columns.push_back(s.output);
  for (const Row& key : group_order) {
    Row row = key;
    for (size_t i = 0; i < specs.size(); ++i) {
      row.push_back(kernel::FinalizeAgg(specs[i].function, groups.at(key)[i]));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// The type a loader gives a new column: the first non-NULL value's type,
/// or DOUBLE when the non-NULL values mix INT and DOUBLE; kString for an
/// all-NULL one.
inline Result<storage::DataType> ColumnType(const std::vector<Row>& rows,
                                            size_t column) {
  bool ints = false;
  bool doubles = false;
  const Value* first = nullptr;
  for (const Row& row : rows) {
    const Value& v = row[column];
    if (v.is_null()) continue;
    if (first == nullptr) first = &v;
    ints = ints || v.is_int();
    doubles = doubles || v.is_double();
  }
  if (ints && doubles) return storage::DataType::kDouble;
  if (first == nullptr) return storage::DataType::kString;
  return first->type();
}

/// Loader semantics (etl::Executor class comment): create the table on
/// first use unless there is nothing to infer its types from, add missing
/// columns, load absent ones as NULL, merge rows on `keys`. Keys compare as
/// the target stores them: an INT bound for a DOUBLE key column keys as
/// the double it becomes.
inline Result<int64_t> Load(const Node& node, const Dataset& data,
                            storage::Database* target) {
  const std::string table_name = kernel::Param(node, "table");
  if (table_name.empty()) {
    return Status::ExecutionError("loader '" + node.id +
                                  "' lacks a table param");
  }
  std::vector<std::string> keys =
      kernel::SplitNonEmpty(kernel::Param(node, "keys"));
  if (!target->HasTable(table_name) && data.rows.empty()) return 0;
  if (!target->HasTable(table_name)) {
    storage::TableSchema schema(table_name);
    for (size_t c = 0; c < data.columns.size(); ++c) {
      QUARRY_ASSIGN_OR_RETURN(storage::DataType type,
                              ColumnType(data.rows, c));
      QUARRY_RETURN_NOT_OK(schema.AddColumn({data.columns[c], type, true}));
    }
    if (!keys.empty()) QUARRY_RETURN_NOT_OK(schema.SetPrimaryKey(keys));
    QUARRY_RETURN_NOT_OK(target->CreateTable(std::move(schema)).status());
  }
  QUARRY_ASSIGN_OR_RETURN(storage::Table * table,
                          target->GetTable(table_name));
  for (size_t c = 0; c < data.columns.size(); ++c) {
    if (table->schema().ColumnIndex(data.columns[c]).has_value()) continue;
    QUARRY_ASSIGN_OR_RETURN(storage::DataType type, ColumnType(data.rows, c));
    QUARRY_RETURN_NOT_OK(table->AddColumn({data.columns[c], type, true}));
  }
  std::vector<int> positions;  // per target column; -1 = NULL
  for (const storage::Column& c : table->schema().columns()) {
    auto it = std::find(data.columns.begin(), data.columns.end(), c.name);
    positions.push_back(it == data.columns.end()
                            ? -1
                            : static_cast<int>(it - data.columns.begin()));
  }
  std::vector<size_t> key_positions;
  std::vector<size_t> tk;  // The keys' target columns.
  if (!keys.empty()) {
    QUARRY_ASSIGN_OR_RETURN(
        key_positions, kernel::ColumnPositions(data.columns, keys, node.id));
    for (const std::string& k : keys) {
      tk.push_back(*table->schema().ColumnIndex(k));
    }
  }
  // The key of an input row as the target would store it.
  auto stored_key = [&](const Row& row) {
    Row key = kernel::ExtractKey(row, key_positions);
    for (size_t i = 0; i < key.size(); ++i) {
      if (key[i].is_int() &&
          table->schema().columns()[tk[i]].type == storage::DataType::kDouble) {
        key[i] = Value::Double(key[i].as_double());
      }
    }
    return key;
  };
  // A mirror of the target's rows, kept current as rows merge and land.
  std::vector<Row> stored = table->rows();
  std::unordered_map<Row, size_t, kernel::RowKeyHash, kernel::RowKeyEq>
      existing;
  if (!key_positions.empty()) {
    for (size_t r = 0; r < stored.size(); ++r) {
      existing.emplace(kernel::ExtractKey(stored[r], tk), r);
    }
  }
  int64_t written = 0;
  for (const Row& row : data.rows) {
    Row key = stored_key(row);
    auto it = key_positions.empty() ? existing.end() : existing.find(key);
    if (it != existing.end()) {
      for (size_t c = 0; c < positions.size(); ++c) {
        if (positions[c] < 0) continue;
        const Value& incoming = row[static_cast<size_t>(positions[c])];
        if (incoming.is_null() || !stored[it->second][c].is_null()) continue;
        QUARRY_RETURN_NOT_OK(table->SetCell(it->second, c, incoming));
        stored[it->second][c] = table->row(it->second)[c];
      }
      continue;
    }
    Row out;
    for (int p : positions) {
      out.push_back(p < 0 ? Value::Null() : row[static_cast<size_t>(p)]);
    }
    QUARRY_RETURN_NOT_OK(table->Insert(std::move(out)));
    stored.push_back(table->row(table->num_rows() - 1));
    if (!key_positions.empty()) {
      existing.emplace(std::move(key), table->num_rows() - 1);
    }
    ++written;
  }
  return written;
}

/// Runs one operator over its materialized inputs (edge order). Loaders
/// write into `target`, add their row count to `*loaded` and emit nothing.
inline Result<Dataset> RunNode(const Node& node,
                               const std::vector<const Dataset*>& inputs,
                               const storage::Database& source,
                               storage::Database* target, int64_t* loaded) {
  using kernel::Param;
  auto input = [&](size_t i) -> const Dataset& { return *inputs[i]; };
  Dataset out;
  switch (node.type) {
    case OpType::kDatastore: {
      QUARRY_ASSIGN_OR_RETURN(const storage::Table* table,
                              source.GetTable(Param(node, "table")));
      for (const storage::Column& c : table->schema().columns()) {
        out.columns.push_back(c.name);
      }
      out.rows = table->rows();
      return out;
    }
    case OpType::kExtraction:
      return input(0);
    case OpType::kSelection: {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr pred,
                              ParseExpr(Param(node, "predicate")));
      out.columns = input(0).columns;
      for (const Row& row : input(0).rows) {
        QUARRY_ASSIGN_OR_RETURN(Value v,
                                EvalRow(*pred, {&out.columns, &row}));
        if (ExprTruthy(v)) out.rows.push_back(row);
      }
      return out;
    }
    case OpType::kProjection: {
      out.columns = kernel::SplitNonEmpty(Param(node, "columns"));
      QUARRY_ASSIGN_OR_RETURN(
          auto positions,
          kernel::ColumnPositions(input(0).columns, out.columns, node.id));
      for (const Row& row : input(0).rows) {
        out.rows.push_back(kernel::ExtractKey(row, positions));
      }
      return out;
    }
    case OpType::kJoin:
      if (inputs.size() != 2) {
        return Status::ExecutionError("join '" + node.id +
                                      "' needs exactly 2 inputs");
      }
      return Join(node, input(0), input(1));
    case OpType::kAggregation:
      return Aggregate(node, input(0));
    case OpType::kFunction: {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr expr, ParseExpr(Param(node, "expr")));
      const std::string column = Param(node, "column");
      if (column.empty()) {
        return Status::ExecutionError("function '" + node.id +
                                      "' lacks a column param");
      }
      out.columns = input(0).columns;
      out.columns.push_back(column);
      for (const Row& row : input(0).rows) {
        QUARRY_ASSIGN_OR_RETURN(Value v,
                                EvalRow(*expr, {&input(0).columns, &row}));
        Row extended = row;
        extended.push_back(std::move(v));
        out.rows.push_back(std::move(extended));
      }
      return out;
    }
    case OpType::kSort: {
      std::vector<std::string> by = kernel::SplitNonEmpty(Param(node, "by"));
      QUARRY_ASSIGN_OR_RETURN(
          auto positions,
          kernel::ColumnPositions(input(0).columns, by, node.id));
      const bool desc = Param(node, "desc") == "true";
      out = input(0);
      std::stable_sort(out.rows.begin(), out.rows.end(),
                       [&](const Row& a, const Row& b) {
                         for (size_t p : positions) {
                           int cmp = a[p].Compare(b[p]);
                           if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
                         }
                         return false;
                       });
      return out;
    }
    case OpType::kUnion:
      if (inputs.size() < 2) {
        return Status::ExecutionError("union '" + node.id +
                                      "' needs >= 2 inputs");
      }
      out.columns = input(0).columns;
      for (const Dataset* in : inputs) {
        if (in->columns != out.columns) {
          return Status::ExecutionError("union '" + node.id +
                                        "' inputs have different schemas");
        }
        out.rows.insert(out.rows.end(), in->rows.begin(), in->rows.end());
      }
      return out;
    case OpType::kSurrogateKey: {
      std::vector<std::string> keys =
          kernel::SplitNonEmpty(Param(node, "keys"));
      const std::string column = Param(node, "column");
      if (column.empty() || keys.empty()) {
        return Status::ExecutionError("surrogate key '" + node.id +
                                      "' needs column and keys params");
      }
      QUARRY_ASSIGN_OR_RETURN(
          auto positions,
          kernel::ColumnPositions(input(0).columns, keys, node.id));
      std::unordered_map<Row, int64_t, kernel::RowKeyHash, kernel::RowKeyEq>
          ids;
      out.columns = input(0).columns;
      out.columns.push_back(column);
      for (const Row& row : input(0).rows) {
        auto it = ids.try_emplace(kernel::ExtractKey(row, positions),
                                  static_cast<int64_t>(ids.size()) + 1)
                      .first;
        Row extended = row;
        extended.push_back(Value::Int(it->second));
        out.rows.push_back(std::move(extended));
      }
      return out;
    }
    case OpType::kLoader: {
      QUARRY_ASSIGN_OR_RETURN(*loaded, Load(node, input(0), target));
      out.columns = input(0).columns;
      return out;
    }
  }
  return Status::Internal("unknown operator type");
}

/// Runs `flow` from `source` into `target`. The report carries what the
/// harness compares: per-node rows_in/rows_out (attempts always 1),
/// rows_processed and rows loaded per target table.
inline Result<ExecutionReport> Run(const storage::Database& source,
                                   const Flow& flow,
                                   storage::Database* target) {
  QUARRY_ASSIGN_OR_RETURN(auto order, flow.TopologicalOrder());
  std::map<std::string, Dataset> done;
  ExecutionReport report;
  for (const std::string& id : order) {
    const Node& node = *flow.GetNode(id).value();
    std::vector<const Dataset*> inputs;
    NodeStats stats;
    stats.node_id = id;
    stats.type = node.type;
    for (const std::string& pred : flow.Predecessors(id)) {
      inputs.push_back(&done.at(pred));
      stats.rows_in += static_cast<int64_t>(done.at(pred).rows.size());
    }
    int64_t loaded = 0;
    Result<Dataset> out = RunNode(node, inputs, source, target, &loaded);
    if (!out.ok()) return out.status().WithContext("node '" + id + "'");
    if (node.type == OpType::kLoader) {
      report.loaded[kernel::Param(node, "table")] += loaded;
    }
    stats.rows_out = static_cast<int64_t>(out->rows.size());
    report.rows_processed += stats.rows_in;
    report.attempts += 1;
    report.nodes.push_back(stats);
    done.emplace(id, std::move(*out));
  }
  return report;
}

}  // namespace quarry::etl::reference

#endif  // QUARRY_TESTS_ETL_REFERENCE_H_
