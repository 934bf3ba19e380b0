#include "etl/schema_inference.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "etl/expr.h"

namespace quarry::etl {

Result<std::vector<AggSpec>> ParseAggSpecs(const std::string& text) {
  std::vector<AggSpec> out;
  for (const std::string& raw : Split(text, ';')) {
    std::string_view item = Trim(raw);
    if (item.empty()) continue;
    size_t open = item.find('(');
    size_t close = item.find(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      return Status::ParseError("bad aggregate spec '" + std::string(item) +
                                "'");
    }
    AggSpec spec;
    spec.function = ToUpper(Trim(item.substr(0, open)));
    spec.input = std::string(Trim(item.substr(open + 1, close - open - 1)));
    std::string_view rest = Trim(item.substr(close + 1));
    if (rest.size() >= 3 && EqualsIgnoreCase(rest.substr(0, 2), "AS")) {
      spec.output = std::string(Trim(rest.substr(2)));
    } else if (rest.empty()) {
      spec.output = spec.function + "_" + spec.input;
    } else {
      return Status::ParseError("bad aggregate alias in '" +
                                std::string(item) + "'");
    }
    if (spec.function != "SUM" && spec.function != "AVG" &&
        spec.function != "MIN" && spec.function != "MAX" &&
        spec.function != "COUNT") {
      return Status::ParseError("unknown aggregate function '" +
                                spec.function + "'");
    }
    if (spec.input == "*" && spec.function != "COUNT") {
      return Status::ParseError("'*' is only valid for COUNT");
    }
    if (spec.input.empty() || spec.output.empty()) {
      return Status::ParseError("empty aggregate input/alias in '" +
                                std::string(item) + "'");
    }
    out.push_back(std::move(spec));
  }
  if (out.empty()) return Status::ParseError("empty aggregate list");
  return out;
}

std::string AggSpecsToString(const std::vector<AggSpec>& specs) {
  std::vector<std::string> parts;
  parts.reserve(specs.size());
  for (const AggSpec& s : specs) {
    parts.push_back(s.function + "(" + s.input + ") AS " + s.output);
  }
  return Join(parts, ";");
}

namespace {

Status RequireColumns(const std::vector<std::string>& have,
                      const std::set<std::string>& need,
                      const std::string& node_id) {
  for (const std::string& c : need) {
    if (std::find(have.begin(), have.end(), c) == have.end()) {
      return Status::ValidationError("node '" + node_id +
                                     "' references unknown column '" + c +
                                     "'");
    }
  }
  return Status::OK();
}

std::vector<std::string> SplitNonEmpty(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& part : Split(text, ',')) {
    std::string trimmed(Trim(part));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

std::string ParamOrEmpty(const Node& node, const std::string& key) {
  auto it = node.params.find(key);
  return it == node.params.end() ? "" : it->second;
}

}  // namespace

Result<ColumnReads> ColumnsRead(const Node& node, size_t num_inputs) {
  using Rule = ColumnReads::Rule;
  const std::string& id = node.id;
  if (node.type == OpType::kJoin && num_inputs != 2) {
    return Status::ValidationError("join '" + id + "' needs exactly 2 inputs");
  }
  if (node.type == OpType::kUnion && num_inputs < 2) {
    return Status::ValidationError("union '" + id + "' needs >= 2 inputs");
  }
  if (node.type != OpType::kDatastore && num_inputs == 0) {
    return Status::ValidationError("node '" + id + "' has no input");
  }
  ColumnReads reads;
  reads.own.resize(num_inputs);
  switch (node.type) {
    case OpType::kDatastore:
      reads.rule = Rule::kOwn;
      break;
    case OpType::kExtraction:
    case OpType::kUnion:
      reads.rule = Rule::kPassThrough;
      break;
    case OpType::kSort:
    case OpType::kLoader:
      reads.rule = Rule::kAll;
      break;
    case OpType::kSelection: {
      auto pred_it = node.params.find("predicate");
      if (pred_it == node.params.end()) {
        return Status::ValidationError("selection '" + id +
                                       "' lacks a predicate");
      }
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr pred, ParseExpr(pred_it->second));
      reads.own[0] = pred->ReferencedColumns();
      reads.rule = Rule::kPassThrough;
      break;
    }
    case OpType::kProjection: {
      std::vector<std::string> keep =
          SplitNonEmpty(ParamOrEmpty(node, "columns"));
      reads.own[0].insert(keep.begin(), keep.end());
      reads.rule = Rule::kSubset;
      break;
    }
    case OpType::kJoin: {
      std::vector<std::string> left_keys =
          SplitNonEmpty(ParamOrEmpty(node, "left"));
      std::vector<std::string> right_keys =
          SplitNonEmpty(ParamOrEmpty(node, "right"));
      if (left_keys.empty() || left_keys.size() != right_keys.size()) {
        return Status::ValidationError("join '" + id +
                                       "' has mismatched key lists");
      }
      reads.own[0].insert(left_keys.begin(), left_keys.end());
      reads.own[1].insert(right_keys.begin(), right_keys.end());
      reads.rule = Rule::kPassThrough;
      break;
    }
    case OpType::kAggregation: {
      std::vector<std::string> group =
          SplitNonEmpty(ParamOrEmpty(node, "group"));
      QUARRY_ASSIGN_OR_RETURN(auto specs,
                              ParseAggSpecs(ParamOrEmpty(node, "aggs")));
      reads.own[0].insert(group.begin(), group.end());
      for (const AggSpec& s : specs) {
        if (s.input != "*") reads.own[0].insert(s.input);
      }
      reads.rule = Rule::kOwn;
      break;
    }
    case OpType::kFunction: {
      auto col_it = node.params.find("column");
      auto expr_it = node.params.find("expr");
      if (col_it == node.params.end() || expr_it == node.params.end()) {
        return Status::ValidationError("function '" + id +
                                       "' needs column and expr params");
      }
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr expr, ParseExpr(expr_it->second));
      reads.own[0] = expr->ReferencedColumns();
      reads.rule = Rule::kPassThrough;
      break;
    }
    case OpType::kSurrogateKey: {
      if (node.params.count("column") == 0) {
        return Status::ValidationError("surrogate key '" + id +
                                       "' needs a column param");
      }
      std::vector<std::string> keys =
          SplitNonEmpty(ParamOrEmpty(node, "keys"));
      reads.own[0].insert(keys.begin(), keys.end());
      reads.rule = Rule::kPassThrough;
      break;
    }
  }
  return reads;
}

std::map<std::string, LiveColumns> LiveColumnsOf(
    const Flow& flow, const std::vector<std::string>& order) {
  using Rule = ColumnReads::Rule;
  const std::map<std::string, std::vector<std::string>> consumers =
      flow.SuccessorLists();
  std::map<std::string, LiveColumns> live;
  // Reverse topological order: every consumer's set is final before its
  // inputs are visited.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    LiveColumns& mine = live[*it];
    auto succ_it = consumers.find(*it);
    if (succ_it == consumers.end() || succ_it->second.empty()) continue;
    mine.all = false;
    for (const std::string& succ : succ_it->second) {
      const std::vector<std::string> inputs = flow.Predecessors(succ);
      Result<ColumnReads> reads =
          ColumnsRead(*flow.GetNode(succ).value(), inputs.size());
      const LiveColumns& out = live.at(succ);
      if (!reads.ok() || reads->rule == Rule::kAll ||
          (reads->rule == Rule::kPassThrough && out.all)) {
        mine = LiveColumns{};
        break;
      }
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i] != *it) continue;
        const std::set<std::string>& own = reads->own[i];
        if (reads->rule == Rule::kSubset) {
          for (const std::string& name : own) {
            if (out.Contains(name)) mine.names.insert(name);
          }
          continue;
        }
        mine.names.insert(own.begin(), own.end());
        if (reads->rule == Rule::kPassThrough) {
          mine.names.insert(out.names.begin(), out.names.end());
        }
      }
    }
  }
  return live;
}

Result<std::map<std::string, std::vector<std::string>>> InferColumns(
    const Flow& flow, const TableColumns& sources) {
  QUARRY_ASSIGN_OR_RETURN(auto order, flow.TopologicalOrder());
  std::map<std::string, std::vector<std::string>> columns;
  for (const std::string& id : order) {
    const Node& node = *flow.GetNode(id).value();
    std::vector<std::string> inputs = flow.Predecessors(id);
    auto input_columns = [&](size_t i) -> const std::vector<std::string>& {
      return columns.at(inputs[i]);
    };
    QUARRY_ASSIGN_OR_RETURN(ColumnReads reads,
                            ColumnsRead(node, inputs.size()));
    for (size_t i = 0; i < inputs.size(); ++i) {
      QUARRY_RETURN_NOT_OK(RequireColumns(input_columns(i), reads.own[i], id));
    }
    switch (node.type) {
      case OpType::kDatastore: {
        auto it = sources.find(ParamOrEmpty(node, "table"));
        if (it == sources.end()) {
          return Status::NotFound("source table for datastore '" + id + "'");
        }
        columns[id] = it->second;
        break;
      }
      case OpType::kExtraction:
      case OpType::kSelection:
      case OpType::kSort:
      case OpType::kLoader:
        columns[id] = input_columns(0);
        break;
      case OpType::kProjection:
        columns[id] = SplitNonEmpty(ParamOrEmpty(node, "columns"));
        break;
      case OpType::kJoin: {
        std::vector<std::string> merged = input_columns(0);
        for (const std::string& c : input_columns(1)) {
          if (std::find(merged.begin(), merged.end(), c) != merged.end()) {
            return Status::ValidationError("join '" + id +
                                           "' would duplicate column '" + c +
                                           "'");
          }
          merged.push_back(c);
        }
        columns[id] = std::move(merged);
        break;
      }
      case OpType::kAggregation: {
        std::vector<std::string> out =
            SplitNonEmpty(ParamOrEmpty(node, "group"));
        QUARRY_ASSIGN_OR_RETURN(auto specs,
                                ParseAggSpecs(ParamOrEmpty(node, "aggs")));
        for (const AggSpec& s : specs) out.push_back(s.output);
        columns[id] = std::move(out);
        break;
      }
      case OpType::kFunction:
      case OpType::kSurrogateKey: {
        const std::string& column = node.params.at("column");
        std::vector<std::string> out = input_columns(0);
        if (node.type == OpType::kFunction &&
            std::find(out.begin(), out.end(), column) != out.end()) {
          return Status::ValidationError("function '" + id +
                                         "' overwrites existing column '" +
                                         column + "'");
        }
        out.push_back(column);
        columns[id] = std::move(out);
        break;
      }
      case OpType::kUnion: {
        const std::vector<std::string>& first = input_columns(0);
        for (size_t i = 1; i < inputs.size(); ++i) {
          if (input_columns(i) != first) {
            return Status::ValidationError("union '" + id +
                                           "' inputs have different schemas");
          }
        }
        columns[id] = first;
        break;
      }
    }
  }
  return columns;
}

}  // namespace quarry::etl
